package memsim

// Hardware prefetchers. Off-the-shelf CPUs ship simple next-line and
// stride/stream engines (the paper cites Intel's four per-core
// prefetchers). They excel on the sequential streams of the MLP stages and
// on the consecutive lines *within* one embedding row, but cannot follow
// the row-to-row indirection — which is why the paper finds toggling them
// nearly irrelevant for the embedding stage (Fig. 10a, "w/o HW-PF").

// Each engine has one hierarchy slot — NextLinePrefetcher at L1,
// StridePrefetcher at L2 — and the hierarchy holds the concrete types,
// so a demand miss trains its engine without dynamic dispatch. An
// engine's OnDemandMiss observes a demand miss to line address a and
// appends the line addresses worth prefetching (possibly none) to out,
// returning the extended slice. The caller owns out's backing array,
// so a steady-state miss stream allocates nothing.

// NextLinePrefetcher fetches the next sequential line on every demand
// miss — the classic L1 "adjacent line" prefetcher.
type NextLinePrefetcher struct {
	// Degree lines are fetched ahead (typically 1-2).
	Degree int
}

// NewNextLinePrefetcher returns a next-line prefetcher of the given degree.
func NewNextLinePrefetcher(degree int) *NextLinePrefetcher {
	if degree < 1 {
		degree = 1
	}
	return &NextLinePrefetcher{Degree: degree}
}

// OnDemandMiss appends the next Degree sequential lines to out.
func (p *NextLinePrefetcher) OnDemandMiss(a Addr, out []Addr) []Addr {
	for i := 1; i <= p.Degree; i++ {
		out = append(out, a+Addr(i)*LineSize)
	}
	return out
}

// Reset is a no-op: the next-line prefetcher is stateless.
func (p *NextLinePrefetcher) Reset() {}

// StridePrefetcher is a table-based stride detector in the style of Intel's
// L2 streamer: it tracks recent miss addresses per 4 KiB region, and once
// two consecutive misses in a region exhibit the same stride it prefetches
// Degree further strides ahead.
//
// The tracking table is a fixed array of TableSize slots plus a ring FIFO
// of region tags for eviction order; only the region→slot map involves the
// allocator, and it stays at TableSize entries, so steady-state training
// is allocation-free.
type StridePrefetcher struct {
	// Degree strides are fetched once a stream is confirmed.
	Degree int
	// TableSize bounds the number of concurrently tracked regions.
	TableSize int

	slots   map[Addr]int32 // region tag -> index into entries
	entries []strideEntry  // TableSize slots
	fifo    []Addr         // ring of region tags, oldest at head
	head    int
	count   int
}

type strideEntry struct {
	lastAddr  Addr
	stride    int64
	confirmed bool
}

// NewStridePrefetcher returns a stride prefetcher covering up to tableSize
// concurrent streams.
func NewStridePrefetcher(degree, tableSize int) *StridePrefetcher {
	if degree < 1 {
		degree = 1
	}
	if tableSize < 1 {
		tableSize = 16
	}
	return &StridePrefetcher{
		Degree:    degree,
		TableSize: tableSize,
		slots:     make(map[Addr]int32, tableSize),
		entries:   make([]strideEntry, tableSize),
		fifo:      make([]Addr, tableSize),
	}
}

const regionShift = 12 // 4 KiB regions, matching page-bounded HW streamers

// OnDemandMiss trains on the miss and appends prefetch candidates to out.
func (p *StridePrefetcher) OnDemandMiss(a Addr, out []Addr) []Addr {
	region := a >> regionShift
	si, ok := p.slots[region]
	if !ok {
		if p.count >= p.TableSize {
			// Evict the oldest tracked region and reuse its slot.
			old := p.fifo[p.head]
			si = p.slots[old]
			delete(p.slots, old)
			p.fifo[p.head] = region
			p.head++
			if p.head == p.TableSize {
				p.head = 0
			}
		} else {
			pos := p.head + p.count
			if pos >= p.TableSize {
				pos -= p.TableSize
			}
			p.fifo[pos] = region
			si = int32(p.count)
			p.count++
		}
		p.slots[region] = si
		p.entries[si] = strideEntry{lastAddr: a}
		return out
	}
	e := &p.entries[si]
	stride := int64(a) - int64(e.lastAddr)
	e.confirmed = stride != 0 && stride == e.stride
	e.stride = stride
	e.lastAddr = a
	if !e.confirmed || stride == 0 {
		return out
	}
	for i := 1; i <= p.Degree; i++ {
		next := int64(a) + stride*int64(i)
		if next < 0 {
			break
		}
		// HW streamers do not cross the 4 KiB boundary.
		if Addr(next)>>regionShift != region {
			break
		}
		out = append(out, LineAddr(Addr(next)))
	}
	return out
}

// Reset clears all training state.
func (p *StridePrefetcher) Reset() {
	clear(p.slots)
	p.head = 0
	p.count = 0
}
