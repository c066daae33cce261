//go:build !amd64

package main

// cpuModel is only known on amd64, where CPUID names the processor.
func cpuModel() string { return "unknown" }
