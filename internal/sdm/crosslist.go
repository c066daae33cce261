package sdm

// crossTier is the bookkeeping a pod or row tier keeps for the
// attachments it spills across itself: their oldest-first walk order
// (each stamped with a seq from attachSeq), the tier's counters and its
// spill count. A cross attachment's owner tag points here; lvl (0 pod,
// 1 row) names the tier's host tables on the racks, and spec reaches
// the owning scheduler — its spills' memory picks, the detach site it
// builds and the re-point it allows.
type crossTier struct {
	tally
	cross     crossList
	attachSeq uint64
	spills    uint64
	lvl       int
	spec      tierSpec
}

// addCrossOrder stamps an attachment with the next spill sequence
// number and appends it to the oldest-first walk order.
func (t *crossTier) addCrossOrder(att *Attachment) {
	t.attachSeq++
	att.seq = t.attachSeq
	t.cross.pushBack(att)
}

// crossList is the intrusive, oldest-first walk order of a tier's live
// cross-tier attachments, threaded through the attachments' own
// crossPrev/crossNext fields — the dense replacement for the old
// container/list.List plus map[*Attachment]*list.Element pair. Each
// attachment is on at most one tier's list, so the two link fields are
// unambiguous; membership is decidable in O(1) from the links plus the
// head (removal always clears the links).
type crossList struct {
	head, tail *Attachment
	n          int
}

// contains reports membership: a linked node is on the list, and an
// unlinked one is only the list's sole element if it is the head.
func (l *crossList) contains(att *Attachment) bool {
	return att.crossPrev != nil || att.crossNext != nil || l.head == att
}

// pushBack appends att.
func (l *crossList) pushBack(att *Attachment) {
	att.crossPrev, att.crossNext = l.tail, nil
	if l.tail != nil {
		l.tail.crossNext = att
	} else {
		l.head = att
	}
	l.tail = att
	l.n++
}

// insertBefore re-inserts att ahead of next, preserving walk order
// across an undo replay; a nil or since-departed next degrades to
// pushBack, exactly as the element-map variant did.
func (l *crossList) insertBefore(att, next *Attachment) {
	if next == nil || !l.contains(next) {
		l.pushBack(att)
		return
	}
	att.crossNext = next
	att.crossPrev = next.crossPrev
	if next.crossPrev != nil {
		next.crossPrev.crossNext = att
	} else {
		l.head = att
	}
	next.crossPrev = att
	l.n++
}

// remove unlinks att if present (no-op otherwise, matching the old
// map-guarded removal).
func (l *crossList) remove(att *Attachment) {
	if !l.contains(att) {
		return
	}
	if att.crossPrev != nil {
		att.crossPrev.crossNext = att.crossNext
	} else {
		l.head = att.crossNext
	}
	if att.crossNext != nil {
		att.crossNext.crossPrev = att.crossPrev
	} else {
		l.tail = att.crossPrev
	}
	att.crossPrev, att.crossNext = nil, nil
	l.n--
}
