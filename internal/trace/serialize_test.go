package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// limitedWriter errors after n bytes, to exercise Write's error paths.
type limitedWriter struct {
	n int
}

func (w *limitedWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, io.ErrShortWrite
	}
	w.n -= len(p)
	return len(p), nil
}

func TestWriteSurfacesWriterErrors(t *testing.T) {
	cfg := smallConfig(MediumHot)
	cfg.Tables = 1
	cfg.Batches = 1
	d := mustDataset(t, cfg)
	// Fail at various truncation points: header, offsets, indices.
	for _, limit := range []int{0, 10, 100, 2000} {
		if err := Write(&limitedWriter{n: limit}, d); err == nil {
			t.Errorf("limit %d: Write succeeded on failing writer", limit)
		}
	}
}

func TestReadRejectsTruncatedPayload(t *testing.T) {
	cfg := smallConfig(MediumHot)
	cfg.Tables = 1
	cfg.Batches = 1
	d := mustDataset(t, cfg)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) / 2, len(full) - 4, 40} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("accepted payload truncated to %d bytes", cut)
		}
	}
}

func TestReadRejectsWrongVersion(t *testing.T) {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, uint32(fileMagic))
	binary.Write(&buf, binary.LittleEndian, uint32(99)) // bad version
	if _, err := Read(&buf); err == nil {
		t.Fatal("accepted unknown version")
	}
}

func TestReadRejectsInvalidConfig(t *testing.T) {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, uint32(fileMagic))
	binary.Write(&buf, binary.LittleEndian, uint32(fileVersion))
	// hotness, rows=0 (invalid), tables, bs, lps, nb, seed
	for _, v := range []int32{0, 0, 1, 1, 1, 1} {
		binary.Write(&buf, binary.LittleEndian, v)
	}
	binary.Write(&buf, binary.LittleEndian, uint64(1))
	if _, err := Read(&buf); err == nil {
		t.Fatal("accepted zero-row config")
	}
}

func TestStoredTraceBatchShape(t *testing.T) {
	cfg := smallConfig(HighHot)
	cfg.Tables = 2
	cfg.Batches = 2
	d := mustDataset(t, cfg)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	st, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tb := st.Batch(1, 1)
	if len(tb.Offsets) != cfg.BatchSize+1 {
		t.Fatalf("offsets len = %d", len(tb.Offsets))
	}
}

// validTrace is a small written trace whose file the Read tests patch:
// a 40-byte header, then each (batch, table) pair's 9 offsets and 32
// indices.
func validTrace(t testing.TB) []byte {
	t.Helper()
	cfg := Config{Hotness: MediumHot, Rows: 100, Tables: 2, BatchSize: 8, LookupsPerSample: 4, Batches: 2, Seed: 3}
	d, err := NewDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// header returns a 40-byte trace header with the given dimensions.
func header(hotness, rows, tables, batch, lookups, batches int32) []byte {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, uint32(fileMagic))
	binary.Write(&buf, binary.LittleEndian, uint32(fileVersion))
	for _, v := range []int32{hotness, rows, tables, batch, lookups, batches} {
		binary.Write(&buf, binary.LittleEndian, v)
	}
	binary.Write(&buf, binary.LittleEndian, uint64(1))
	return buf.Bytes()
}

// patch returns a copy of file with the int32 at byte offset at set to v.
func patch(file []byte, at int, v int32) []byte {
	out := append([]byte(nil), file...)
	binary.LittleEndian.PutUint32(out[at:], uint32(v))
	return out
}

// Byte offsets into validTrace's file.
const (
	hotnessAt = 8
	offsetsAt = 40              // first pair's offsets
	indicesAt = offsetsAt + 9*4 // first pair's indices
)

func TestReadRejectsUnknownHotness(t *testing.T) {
	file := validTrace(t)
	for _, h := range []int32{-1, int32(RandomAccess) + 1} {
		if _, err := Read(bytes.NewReader(patch(file, hotnessAt, h))); err == nil {
			t.Errorf("accepted hotness %d", h)
		}
	}
}

func TestReadRejectsBadOffsets(t *testing.T) {
	file := validTrace(t)
	for name, bad := range map[string][]byte{
		"nonzero start": patch(file, offsetsAt, 1),
		"decreasing":    patch(file, offsetsAt+2*4, 0),
		"short end":     patch(file, offsetsAt+8*4, 31),
		"long end":      patch(file, offsetsAt+8*4, 33),
	} {
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadRejectsIndexOutOfRange(t *testing.T) {
	file := validTrace(t)
	for _, x := range []int32{-1, 100} {
		if _, err := Read(bytes.NewReader(patch(file, indicesAt+5*4, x))); err == nil {
			t.Errorf("accepted index %d in a 100-row table", x)
		}
	}
}

// TestReadRejectsOversizedHeader: a header that claims far more payload
// than the file holds is an error, not a panic or a huge allocation.
func TestReadRejectsOversizedHeader(t *testing.T) {
	for name, file := range map[string][]byte{
		// 2^6 batches x 2^5 tables x 2^15 samples x 2^15 lookups = 2^41
		// indices, in a file that is only its header.
		"2^41 indices":           header(int32(HighHot), 1000, 1<<5, 1<<15, 1<<15, 1<<6),
		"int32 offsets overflow": header(int32(HighHot), 1000, 1, 1<<16, 1<<16, 1),
		"payload size overflow":  header(int32(HighHot), 1000, math.MaxInt32, math.MaxInt32, 1, math.MaxInt32),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(bytes.NewReader(file))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<10 {
			t.Errorf("%s: Read allocated %d bytes before failing", name, alloc)
		}
	}
}

// FuzzTraceRead: for any bytes, Read either fails or returns a trace
// that is well-formed by the independent check below, and writing that
// trace reads back equal.
func FuzzTraceRead(f *testing.F) {
	file := validTrace(f)
	f.Add(file)
	f.Add(patch(file, hotnessAt, 7))
	f.Add(patch(file, offsetsAt+2*4, 0))
	f.Add(patch(file, indicesAt, 100))
	f.Add(header(int32(HighHot), 1000, 1<<5, 1<<15, 1<<15, 1<<6))
	f.Add(header(int32(HighHot), 1000, math.MaxInt32, math.MaxInt32, 1, math.MaxInt32))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		c := st.Config
		if c.Hotness < OneItem || c.Hotness > RandomAccess || c.Validate() != nil {
			t.Fatalf("accepted config %+v", c)
		}
		for b := 0; b < c.Batches; b++ {
			for tb := 0; tb < c.Tables; tb++ {
				pair := st.Batch(b, tb)
				off, idx := pair.Offsets, pair.Indices
				if len(off) != c.BatchSize+1 || len(idx) != c.BatchSize*c.LookupsPerSample {
					t.Fatalf("pair (%d,%d): %d offsets, %d indices for %+v", b, tb, len(off), len(idx), c)
				}
				if off[0] != 0 || int(off[c.BatchSize]) != len(idx) {
					t.Fatalf("pair (%d,%d): offsets span [%d,%d] over %d indices", b, tb, off[0], off[c.BatchSize], len(idx))
				}
				for i := 1; i < len(off); i++ {
					if off[i] < off[i-1] {
						t.Fatalf("pair (%d,%d): offset %d decreases", b, tb, i)
					}
				}
				for _, x := range idx {
					if x < 0 || int(x) >= c.Rows {
						t.Fatalf("pair (%d,%d): index %d outside %d rows", b, tb, x, c.Rows)
					}
				}
			}
		}
		var buf bytes.Buffer
		if err := write(&buf, c, st); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("rereading a written trace: %v", err)
		}
		if !reflect.DeepEqual(back, st) {
			t.Fatal("written trace reads back different")
		}
	})
}
