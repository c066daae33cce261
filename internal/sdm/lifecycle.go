package sdm

// The attachment lifecycle engine: the moves of a live remote-memory
// attachment — re-point of the compute end, re-home of the memory end,
// and the cross-rack→rack-local promotion the rebalancer runs — execute
// as one AttachmentOp, a plan of reversible steps committed atomically.
// The engine re-terminates circuits across the optical tiers (the rack
// fabric and the pod switch's uplinks), moves TGL windows and keeps
// rider safety; reattach.go, rebalance.go and pod.go are thin callers
// that select resources, build a plan, commit it, and re-host the moved
// attachment through its attach sites (host and unhost). Attach and
// detach run inline bodies instead, at every tier (attachSite.attach in
// batch.go, detachSite.detach in teardown.go), which allocate nothing
// per call.

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/optical"
	"repro/internal/sim"
	"repro/internal/tgl"
	"repro/internal/topo"
)

// OpKind names the attachment lifecycle operations.
type OpKind int

const (
	// OpAttach provisions a new attachment: segment, circuit, TGL window.
	OpAttach OpKind = iota
	// OpDetach tears an attachment down in reverse order.
	OpDetach
	// OpRepoint moves the compute end: circuit and TGL window follow the
	// VM to a new compute brick while the segment stays put.
	OpRepoint
	// OpRehome moves the memory end: the segment's contents are copied
	// to another memory brick and the circuit re-terminated there, while
	// the guest-visible window base never changes.
	OpRehome
	// OpPromote is the rehome special case the rebalancer runs: a
	// cross-rack attachment pulled back to its compute rack, releasing
	// both pod uplinks.
	OpPromote
)

func (k OpKind) String() string {
	switch k {
	case OpAttach:
		return "attach"
	case OpDetach:
		return "detach"
	case OpRepoint:
		return "re-point"
	case OpRehome:
		return "re-home"
	case OpPromote:
		return "promote"
	}
	return "op"
}

// rehomeLinkGbps is the line rate charged for shipping a segment's
// contents to its new memory brick during a re-home (one transceiver
// lane over the live circuit, same rate as VM migration's stop-and-copy).
const rehomeLinkGbps = 10

// opStep is one reversible action of a lifecycle plan. A step with a
// nil do is a pure latency charge — data, not a closure, so fixed
// control-plane costs allocate nothing.
type opStep struct {
	do     func() (sim.Duration, error)
	undo   func() error
	charge sim.Duration
}

// AttachmentOp is one planned attachment mutation. A plan is built
// step by step and committed atomically: Commit executes the steps in
// order and, on any failure, rolls every completed step back in
// reverse before returning — a failed op leaves the circuit state
// exactly as it found it.
type AttachmentOp struct {
	Kind OpKind

	steps []opStep
	lat   sim.Duration

	// err short-circuits Commit for plans that failed validation.
	err error
	// stepBuf/touchBuf are the inline backing arrays of steps and
	// touches: plans are built and committed on the scheduler's hottest
	// path, so the slices must not allocate separately from the op.
	stepBuf  [10]opStep
	touchBuf [2]func()
	// touches are the placement-index refresh hooks of every brick the
	// plan may mutate. They run exactly once, at Commit's single exit
	// point — after success or after rollback — which makes the
	// lifecycle engine the one choke point where scheduler indexes and
	// brick state reconcile.
	touches []func()
}

// newOp builds an empty plan whose step and touch slices alias the
// op's inline buffers.
func newOp(kind OpKind) *AttachmentOp {
	op := &AttachmentOp{Kind: kind}
	op.steps = op.stepBuf[:0]
	op.touches = op.touchBuf[:0]
	return op
}

// step appends a reversible action; undo may be nil for irreversible
// (or final) steps.
func (op *AttachmentOp) step(do func() (sim.Duration, error), undo func() error) {
	op.steps = append(op.steps, opStep{do: do, undo: undo})
}

// charge appends a fixed control-plane latency as an infallible step.
func (op *AttachmentOp) charge(d sim.Duration) {
	op.steps = append(op.steps, opStep{charge: d})
}

// touch registers an index-refresh hook to run when Commit exits.
func (op *AttachmentOp) touch(fn func()) {
	op.touches = append(op.touches, fn)
}

// Commit executes the plan. On failure it rolls back and returns the
// latency spent up to the failure — callers cascading into the packet
// fallback still account for work already done (e.g. a brick boot).
func (op *AttachmentOp) Commit() (sim.Duration, error) {
	if op.err != nil {
		return 0, op.err
	}
	defer func() {
		for _, t := range op.touches {
			t()
		}
	}()
	for i := range op.steps {
		s := &op.steps[i]
		if s.do == nil {
			op.lat += s.charge
			continue
		}
		d, err := s.do()
		op.lat += d
		if err == nil {
			continue
		}
		for j := i - 1; j >= 0; j-- {
			if op.steps[j].undo == nil {
				continue
			}
			if uerr := op.steps[j].undo(); uerr != nil {
				return op.lat, fmt.Errorf("sdm: %v failed (%v) and rollback failed: %w", op.Kind, err, uerr)
			}
		}
		return op.lat, err
	}
	return op.lat, nil
}

// connector hides which optical tier carries a circuit: a rack's own
// fabric or the pod or row switch. The attach and detach bodies and the
// plans connect and disconnect through it without knowing the tier.
type connector struct {
	connect    func(a, b topo.PortID) (*optical.Circuit, sim.Duration, error)
	disconnect func(*optical.Circuit) (sim.Duration, error)
}

// rackTier is the connector for this rack's own circuit fabric,
// built once so plans on the hot path allocate no closures.
func (c *Controller) rackTier() connector {
	if c.tierConn.connect == nil {
		c.tierConn = connector{connect: c.fabric.Connect, disconnect: c.fabric.Disconnect}
	}
	return c.tierConn
}

// CanRepoint reports whether an attachment's circuit can be moved
// (compute end re-pointed or memory end re-homed). Packet-mode
// attachments have no circuit of their own, and a circuit carrying
// packet-mode riders would strand them if it moved. This is the single
// movability pre-flight every caller — VM migration, cross-rack
// emigration, the rebalancer — consults.
func (c *Controller) CanRepoint(att *Attachment) error {
	if att.Mode == ModePacket {
		return fmt.Errorf("sdm: packet-mode attachment of %q rides another circuit; detach and re-attach instead", att.Owner)
	}
	if n := c.Riders(att); n > 0 {
		return fmt.Errorf("sdm: circuit of %q on %v carries %d packet-mode riders; move them first", att.Owner, att.CPU, n)
	}
	return nil
}

// register interns the owner and appends the attachment to its live
// list, stamping the dense ownerID every later registry access keys by.
func (c *Controller) register(att *Attachment) {
	id := c.internOwner(att.Owner)
	att.ownerID = id
	c.attachments[id] = append(c.attachments[id], att)
}

// registered locates an attachment in its owner's live list. An
// attachment registered elsewhere scans (at worst) a different owner's
// list and is correctly not found — the pointer identity check makes a
// stale ownerID safe.
func (c *Controller) registered(att *Attachment) bool {
	id := int(att.ownerID)
	if id < 0 || id >= len(c.attachments) {
		return false
	}
	for _, a := range c.attachments[id] {
		if a == att {
			return true
		}
	}
	return false
}

// unregister removes an attachment from its owner's live list.
func (c *Controller) unregister(att *Attachment) {
	id := int(att.ownerID)
	if id < 0 || id >= len(c.attachments) {
		return
	}
	list := c.attachments[id]
	for i, a := range list {
		if a == att {
			c.attachments[id] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

// planRepoint builds the compute-end move: the circuit and TGL window
// follow the VM to newCPU (possibly on another rack and so another
// optical tier) while the segment — and the data on it — stays exactly
// where it is. move performs the registration hand-over and cannot
// fail; oldTier/newTier carry the circuit before and after.
func planRepoint(cfg Config, att *Attachment,
	oldRack, newRack *Controller, newCPU topo.BrickID,
	oldTier, newTier connector,
	move func(newCPUPort topo.PortID, circuit *optical.Circuit, window tgl.Entry)) *AttachmentOp {

	op := newOp(OpRepoint)
	oldNode := oldRack.compute(att.CPU)
	newNode := newRack.compute(newCPU)
	if newNode == nil {
		op.err = fmt.Errorf("sdm: no compute brick %v", newCPU)
		return op
	}
	op.charge(cfg.DecisionLatency)
	oldCPU := att.CPU
	op.touch(func() { oldRack.touchCompute(oldCPU) })
	op.touch(func() { newRack.touchCompute(newCPU) })

	var (
		newCPUPort topo.PortID
		circuit    *optical.Circuit
		window     tgl.Entry
	)
	oldWindow := att.Window
	// Acquire the new CPU-side port first; nothing is torn down until
	// the new resources are secured.
	op.step(func() (sim.Duration, error) {
		p, err := newNode.Brick.Ports.Acquire()
		if err != nil {
			return 0, err
		}
		newCPUPort = p
		return 0, nil
	}, func() error { newNode.Brick.Ports.Release(newCPUPort); return nil })
	// Tear the old circuit down, freeing the memory-side port (and, for
	// a cross-rack circuit, both pod uplinks) for the new circuit.
	op.step(func() (sim.Duration, error) {
		return oldTier.disconnect(att.Circuit)
	}, func() error {
		c, _, err := oldTier.connect(att.CPUPort, att.MemPort)
		if err != nil {
			return err
		}
		att.Circuit = c
		return nil
	})
	op.step(func() (sim.Duration, error) {
		c, reconfig, err := newTier.connect(newCPUPort, att.MemPort)
		if err != nil {
			return 0, err
		}
		circuit = c
		return reconfig, nil
	}, func() error {
		_, err := newTier.disconnect(circuit)
		return err
	})
	// Install the window on the new brick's agent, then remove the old
	// one; between the two pushes both windows map the segment, which
	// is safe because the VM is paused across a re-point.
	op.step(func() (sim.Duration, error) {
		window = tgl.Entry{
			Base:       newNode.nextWindow,
			Size:       oldWindow.Size,
			Dest:       att.Segment.Brick,
			DestOffset: uint64(att.Segment.Offset),
			Port:       newCPUPort,
		}
		if err := newNode.Agent.Glue.Attach(window); err != nil {
			return 0, err
		}
		newNode.nextWindow += window.Size
		return cfg.AgentRTT, nil
	}, func() error { return newNode.Agent.Glue.Detach(window.Base) })
	op.step(func() (sim.Duration, error) {
		if err := oldNode.Agent.Glue.Detach(oldWindow.Base); err != nil {
			return 0, fmt.Errorf("sdm: old window removal: %w", err)
		}
		return cfg.AgentRTT, nil
	}, func() error { return oldNode.Agent.Glue.Attach(oldWindow) })
	// Release the old CPU port and hand the registration over — past
	// this point the attachment is fully re-homed on the new brick.
	op.step(func() (sim.Duration, error) {
		if err := oldNode.Brick.Ports.Release(att.CPUPort); err != nil {
			return 0, err
		}
		move(newCPUPort, circuit, window)
		return 0, nil
	}, nil)
	return op
}

// planRehome builds the memory-end move: the segment's contents are
// copied to a freshly carved segment on another memory brick over the
// still-live old circuit, the TGL window is re-aimed in place (same
// guest-visible base — no baremetal or hypervisor work), and the
// circuit is re-terminated on the new brick. pick selects the target
// brick on newMemRack; move performs the registration hand-over.
func planRehome(kind OpKind, cfg Config, att *Attachment,
	rackA, oldMemRack, newMemRack *Controller,
	pick func() (topo.BrickID, bool),
	oldTier, newTier connector,
	move func(newMem topo.BrickID, seg *brick.Segment, memPort topo.PortID, circuit *optical.Circuit, window tgl.Entry)) *AttachmentOp {

	op := newOp(kind)
	node := rackA.compute(att.CPU)
	oldMem := oldMemRack.memory(att.Segment.Brick)
	op.charge(cfg.DecisionLatency)
	oldMemID := att.Segment.Brick
	op.touch(func() { oldMemRack.touchMemory(oldMemID) })

	var (
		newMemID topo.BrickID
		m        *brick.Memory
		seg      *brick.Segment
		memPort  topo.PortID
		circuit  *optical.Circuit
		window   tgl.Entry
	)
	op.touch(func() {
		if m != nil {
			newMemRack.touchMemory(newMemID)
		}
	})
	oldWindow := att.Window
	// Target selection, power-up and carve.
	op.step(func() (sim.Duration, error) {
		id, ok := pick()
		if !ok {
			return 0, fmt.Errorf("sdm: no memory brick with %v contiguous free and a spare port to re-home %q", att.Size(), att.Owner)
		}
		newMemID = id
		m = newMemRack.memory(id)
		if m.State() == brick.PowerOff {
			m.PowerOn()
			return cfg.BrickBoot, nil
		}
		return 0, nil
	}, nil)
	op.step(func() (sim.Duration, error) {
		var err error
		seg, err = m.Carve(att.Size(), att.Owner)
		return 0, err
	}, func() error { m.Release(seg); return nil })
	op.step(func() (sim.Duration, error) {
		p, err := m.Ports.Acquire()
		if err != nil {
			return 0, err
		}
		memPort = p
		return 0, nil
	}, func() error { m.Ports.Release(memPort); return nil })
	// Ship the contents over the still-live old circuit.
	op.charge(optical.SerializationDelay(int(att.Size()), rehomeLinkGbps))
	// Re-aim the TGL window in place: same base, new destination. The
	// guest's physical map never changes, so no hotplug is charged.
	op.step(func() (sim.Duration, error) {
		if err := node.Agent.Glue.Detach(oldWindow.Base); err != nil {
			return 0, err
		}
		window = tgl.Entry{
			Base:       oldWindow.Base,
			Size:       oldWindow.Size,
			Dest:       newMemID,
			DestOffset: uint64(seg.Offset),
			Port:       att.CPUPort,
		}
		if err := node.Agent.Glue.Attach(window); err != nil {
			node.Agent.Glue.Attach(oldWindow)
			return 0, err
		}
		return cfg.AgentRTT, nil
	}, func() error {
		if err := node.Agent.Glue.Detach(window.Base); err != nil {
			return err
		}
		return node.Agent.Glue.Attach(oldWindow)
	})
	// Swap the circuit: the old tier's teardown frees the memory-side
	// port (and any pod uplinks); the new tier re-terminates on the
	// same CPU port.
	op.step(func() (sim.Duration, error) {
		return oldTier.disconnect(att.Circuit)
	}, func() error {
		c, _, err := oldTier.connect(att.CPUPort, att.MemPort)
		if err != nil {
			return err
		}
		att.Circuit = c
		return nil
	})
	op.step(func() (sim.Duration, error) {
		c, reconfig, err := newTier.connect(att.CPUPort, memPort)
		if err != nil {
			return 0, err
		}
		circuit = c
		return reconfig, nil
	}, func() error {
		_, err := newTier.disconnect(circuit)
		return err
	})
	// Release the old memory end and hand the registration over.
	op.step(func() (sim.Duration, error) {
		if err := oldMem.Ports.Release(att.MemPort); err != nil {
			return 0, err
		}
		if err := oldMem.Release(att.Segment); err != nil {
			return 0, err
		}
		move(newMemID, seg, memPort, circuit, window)
		return 0, nil
	}, nil)
	return op
}
