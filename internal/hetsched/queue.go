package hetsched

// queued is one ready phase instance in a device's queue, stamped with
// the device's push sequence number when it joined the queue. Stamps
// never wrap: a run pushes each phase instance once when it becomes
// ready and once more per steal, makes at most one steal per batch
// completion and fewer batches than phase instances, so it pushes fewer
// than 2·2³¹ times (phase ids are int32).
type queued struct {
	p   int32
	seq uint32
}

// ring is a growable FIFO ring of queued phases. Its backing array's
// length is a power of two and only ever doubles, so a warmed ring pushes
// and pops without allocating.
type ring struct {
	buf  []queued
	head int // index of the oldest entry
	n    int
}

func (r *ring) push(e queued) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = e
	r.n++
}

func (r *ring) front() queued { return r.buf[r.head] }

func (r *ring) pop() queued {
	e := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return e
}

func (r *ring) grow() {
	buf := make([]queued, max(16, 2*len(r.buf)))
	m := copy(buf, r.buf[r.head:])
	copy(buf[m:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}

// readyQueue is one device's ready phases. Logically it is a single FIFO
// in push order; it is stored as one ring per phase kind, each entry
// stamped with its push sequence number. The logical head is then the
// ring front with the smallest stamp, and the first n phases of kind k
// are the first n entries of ring k, so every operation costs
// O(batch + NumKinds) however deep the backlog.
type readyQueue struct {
	kind [NumKinds]ring
	n    int    // queued phases across every kind
	seq  uint32 // stamp of the next push
}

func (q *readyQueue) push(p int32, k PhaseKind) {
	q.kind[k].push(queued{p: p, seq: q.seq})
	q.seq++
	q.n++
}

// pop removes and returns the oldest queued phase of kind k.
func (q *readyQueue) pop(k PhaseKind) int32 {
	q.n--
	return q.kind[k].pop().p
}

// oldest returns the kind of the oldest queued phase that spec can run
// (of any kind when spec is nil), or false when there is none.
func (q *readyQueue) oldest(spec *DeviceSpec) (PhaseKind, bool) {
	best, found := PhaseKind(0), false
	var bestSeq uint32
	for k := range q.kind {
		r := &q.kind[k]
		if r.n == 0 || spec != nil && !spec.can(PhaseKind(k)) {
			continue
		}
		if s := r.front().seq; !found || s < bestSeq {
			best, bestSeq, found = PhaseKind(k), s, true
		}
	}
	return best, found
}

// counted reports whether the phase count matches the rings' lengths.
func (q *readyQueue) counted() bool {
	n := 0
	for k := range q.kind {
		n += q.kind[k].n
	}
	return n == q.n
}
