package main

// cpuid executes the CPUID instruction.
func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// cpuModel reads the processor brand string from CPUID leaves
// 0x80000002–0x80000004, so the benchmark names its CPU without
// reading files outside its own tree.
func cpuModel() string {
	if max, _, _, _ := cpuid(0x80000000, 0); max < 0x80000004 {
		return "unknown"
	}
	var words []uint32
	for leaf := uint32(0x80000002); leaf <= 0x80000004; leaf++ {
		a, b, c, d := cpuid(leaf, 0)
		words = append(words, a, b, c, d)
	}
	return brandString(words)
}
