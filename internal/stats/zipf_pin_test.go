package stats

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// zipfPinRows × zipfPinExponents is the grid the stream pin covers: the degenerate
// one- and two-row tables, a small table, the bench and paper table
// heights, and the three reference exponents plus s = 1 (sampled as
// 1+1e-9) and a steep 2.5.
var (
	zipfPinRows      = []int{1, 2, 50, 50_000, 1_000_000}
	zipfPinExponents = []float64{0.40, 0.893, 1.0, 1.326, 2.5}
)

// zipfPinDigests holds, per grid cell in row-major (n, s) order, the
// SHA-256 of the first 1M SampleWith ranks (little-endian uint32 each)
// followed by the generator's final state.
var zipfPinDigests = []string{
	"2ed0bd3887c2d7a44f971809bb3c8f435bf5bfc2275c7f817c26f3a6ab538ad9", // n=1 s=0.4
	"8d96c00e07157a3d030f762cae2441a0e1ed6ac8308749f8f531d347315052c8", // n=1 s=0.893
	"07b2eed10265abebb6662be181181b42c2c0cf87b35abd408a6ba12d8a6799e5", // n=1 s=1
	"8d0b24fa037e017e03036d456798868034d48bdf5691f51c2100b48f5f28e7d0", // n=1 s=1.326
	"a54b020e6d5a7279fa0ad2a1a38db54e25b01d776b188ec2d3bc975e6c18e8d6", // n=1 s=2.5
	"efe65c2be4e7f957d1398699ad00421e86ab85376f0f08b7a7f8e7b2bd60e274", // n=2 s=0.4
	"4f04c9aa88395995fff56960e5d440930ce05cfa1aee0487537885ebe1d43edb", // n=2 s=0.893
	"4fbe87678f6fe6bd5f9123e76d6b6923be334a79adfe25624bde1467d9412771", // n=2 s=1
	"3e75903c6f0e4046acaa73cbbb888fb19bbd407de9f699ad558e49219cba4fcd", // n=2 s=1.326
	"6b2b41c4a12e5df21bd2726140d0f8598988c63147c3aafea90cebd6850d74c0", // n=2 s=2.5
	"830145daaf58416c70dca6d0a9832f1f8a385c9f03d093757e34c31ea79a6474", // n=50 s=0.4
	"881faf69b1e4746fe19a1c45f9d88847cb3d96c01863e498992a8d88e6366420", // n=50 s=0.893
	"fbafa65bb2f22644a59362faeeef04312369c30d36626ab468091f549c90eee7", // n=50 s=1
	"dbcedc0c20b8d94c298f9af249588929fda1fea7fe5411a733369d5e74cc3718", // n=50 s=1.326
	"424d88ae2976cb448d7996b20872c20b63e3f54e2b8521baf98bdb5f8e7b1859", // n=50 s=2.5
	"dea81199552d5bd59a7f52eb16c318c780e5f1e48949d141b8ccb2c698e10538", // n=50000 s=0.4
	"e5156b46a09aded6b3874fb1e489d5b00a6b34340ed200bdb183461f39b32db5", // n=50000 s=0.893
	"3260e137e4b40233afc029fe92f56d4bf8d6664b57097801822921d66c64e524", // n=50000 s=1
	"43075539ba6ab691b1d3a6a83fabf051ec46e613052fab46333db23f8a8e7b7d", // n=50000 s=1.326
	"bf97e9fe1ab5b5e4c9738925786da08e5bf31ce4c073f201aa5d1afdb804fa75", // n=50000 s=2.5
	"d47fdf933052734d9349576fdfec1d28efa6c0341f0b6c9304cccc4d4cc24e11", // n=1000000 s=0.4
	"93d7c089de2cb1dcba76b93f0d32886544b8e28175685befad16e3db11069d51", // n=1000000 s=0.893
	"8fd9df9b27074c5ddd4c7ffc27e460d716b4c80ec5be4450974f5ed91e6e53ac", // n=1000000 s=1
	"8cb706d53267568ae79118dec6be386370ded247aec6adb221eb72a19e6fa843", // n=1000000 s=1.326
	"c3214a1679b04260261b78f6968d23caf76d1c550cccb023a1faca30a85ae261", // n=1000000 s=2.5
}

// zipfStreamDigest draws draws ranks from the shared (n, s) sampler on
// the cell's own generator and hashes them with the final state.
func zipfStreamDigest(n int, s float64, cell uint64, draws int) string {
	z := NewSharedZipf(n, s)
	r := NewRNG(SplitSeed(0x5A1F, cell))
	h := sha256.New()
	buf := make([]byte, 0, 4096)
	for i := 0; i < draws; i++ {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(z.SampleWith(r)))
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	buf = binary.LittleEndian.AppendUint64(buf, r.state)
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// TestZipfStreamPinned pins the exact rank stream of the shared sampler
// every cluster run draws from. Any change to SampleWith that moves a
// single rank, or consumes a different number of Float64 draws, changes
// a digest.
func TestZipfStreamPinned(t *testing.T) {
	cell := uint64(0)
	for _, n := range zipfPinRows {
		for _, s := range zipfPinExponents {
			got := zipfStreamDigest(n, s, cell, 1_000_000)
			if want := zipfPinDigests[cell]; got != want {
				t.Errorf("n=%d s=%g: stream digest %s, want %s", n, s, got, want)
			}
			cell++
		}
	}
}
