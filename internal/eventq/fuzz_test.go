package eventq

import (
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzEventOrder drives the wheel and the linear min-scan reference
// (minScan) through an arbitrary interleaving of pushes and pops decoded
// from the fuzz input and checks three invariants: (1) wheel and
// reference agree element-for-element, (2) pop order is non-decreasing
// under the comparator, and (3) nothing is lost or duplicated. The
// decoded schedule respects the monotone-time contract (push times are
// offsets from the last pop), so every generated interleaving is one a
// simulator could produce.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 254, 0, 0, 1, 1})
	f.Add(func() []byte {
		var b []byte
		for i := 0; i < 64; i++ {
			b = append(b, byte(i*37), byte(i))
		}
		return b
	}())
	f.Fuzz(func(t *testing.T, data []byte) {
		// Geometry from the first bytes, schedule from the rest.
		width := 0.25
		buckets := 8
		if len(data) >= 2 {
			width = float64(data[0]%32+1) * 0.125
			buckets = int(data[1]%16) + 1
			data = data[2:]
		}
		var ref minScan
		w := NewWheel(width, buckets, 0, evTime, evLess)
		var pushed, popped []ev
		now := 0.0
		sub := 0
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			if op%4 == 0 && len(ref) > 0 {
				a, b := ref.pop(), w.Pop()
				if a != b {
					t.Fatalf("pop %d: reference %+v wheel %+v", len(popped), a, b)
				}
				if n := len(popped); n > 0 && evLess(a, popped[n-1]) {
					t.Fatalf("pop order regressed: %+v after %+v", a, popped[n-1])
				}
				popped = append(popped, a)
				now = a.t
			} else {
				e := ev{t: now + float64(arg)*0.2, sub: sub, gen: int(op) % 3}
				sub++
				ref.push(e)
				w.Push(e)
				pushed = append(pushed, e)
			}
		}
		for len(ref) > 0 {
			a, b := ref.pop(), w.Pop()
			if a != b {
				t.Fatalf("drain: reference %+v wheel %+v", a, b)
			}
			popped = append(popped, a)
		}
		if w.Len() != 0 {
			t.Fatalf("wheel retains %d events after the reference drained", w.Len())
		}
		// Conservation: popped must be a permutation of pushed — and since
		// the schedule is monotone, exactly the sorted-by-comparator merge
		// of the push batches. Verify against a global reference sort of
		// the pop multiset.
		if len(popped) != len(pushed) {
			t.Fatalf("pushed %d, popped %d", len(pushed), len(popped))
		}
		want := slices.Clone(pushed)
		slices.SortFunc(want, evCmp)
		check := slices.Clone(popped)
		slices.SortFunc(check, evCmp)
		if !slices.Equal(want, check) {
			t.Fatal("popped multiset differs from pushed multiset")
		}
	})
}

// FuzzWheelGeometry pins that pop order is independent of wheel
// geometry: any (width, buckets) pair yields the identical sequence for
// the same event set.
func FuzzWheelGeometry(f *testing.F) {
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(0xDEADBEEF), uint64(0xABCDEF0123))
	f.Fuzz(func(t *testing.T, a, b uint64) {
		var raw [16]byte
		binary.LittleEndian.PutUint64(raw[:8], a)
		binary.LittleEndian.PutUint64(raw[8:], b)
		events := make([]ev, 0, 16)
		for i, c := range raw {
			events = append(events, ev{t: float64(c) * 0.3, sub: i})
		}
		var orders [][]ev
		for _, g := range []struct {
			width   float64
			buckets int
		}{{0.1, 2}, {1, 16}, {500, 3}} {
			w := NewWheel(g.width, g.buckets, 0, evTime, evLess)
			for _, e := range events {
				w.Push(e)
			}
			var order []ev
			for w.Len() > 0 {
				order = append(order, w.Pop())
			}
			orders = append(orders, order)
		}
		for i := 1; i < len(orders); i++ {
			if !slices.Equal(orders[0], orders[i]) {
				t.Fatalf("geometry %d pops a different order", i)
			}
		}
	})
}
