package hetsched

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// digest is the SHA-256 of fmt.Sprintf("%+v", v). %v prints every float
// in its shortest round-trip form, so equal digests mean bit-identical
// fields.
func digest(v any) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", v))))
}

// holdMix is cpu2gpu1 with a GPU that holds up to 40 µs for an 8-phase
// batch: windows arm on a short queue, re-arm as phases join it, expire
// into partial batches and are cut short when the batch fills.
func holdMix(t testing.TB) []DeviceSpec {
	devs := mustMix(t, "cpu2gpu1")
	devs[2].MaxBatch, devs[2].HoldUs = 8, 40
	return devs
}

// hetschedResultPins holds the digest of every Result field for each
// "<mix>/<policy>" cell of TestHetschedResultsPinned.
var hetschedResultPins = map[string]string{
	"cpu1/affinity":                   "82ee6b2f9d21dbc6c68a5f2d5accaab34cb2cee7c280ea00a35232e655e864ca",
	"cpu1/eft":                        "82ee6b2f9d21dbc6c68a5f2d5accaab34cb2cee7c280ea00a35232e655e864ca",
	"cpu1/steal":                      "82ee6b2f9d21dbc6c68a5f2d5accaab34cb2cee7c280ea00a35232e655e864ca",
	"smt2/affinity":                   "e54ce350357ff10f182bd9d05009fae762b5085265ab61b071df605c7b8cf088",
	"smt2/eft":                        "23e8fccb81d868e34dbac0ab3d2b848a2c05a826fc30100b2d671fba82a7a882",
	"smt2/steal":                      "e7819a065ebc90696c9021b685141a4f623b0433cc1cf0c452c9640fd795d352",
	"cpu4/affinity":                   "5d0d1ee3f5e0d188c8c45c3c3d5bf806151e9271a41bfbfa9325aa2c43a2f1c8",
	"cpu4/eft":                        "72a2fbbdde61a18f2b5f31dd82fc242a67f89de35e11f7e74217fff872a3f6e9",
	"cpu4/steal":                      "40abb608b24ea85e83c48a1da4f63aaa4a9cd836093dbfc83b0ca3d8db520eb2",
	"biglittle/affinity":              "83a6d49c092256f9862fa864437f0f9b5af8d19b5d90b230c296dc9f82cf0fbd",
	"biglittle/eft":                   "7aaeabf7710cdb353a58a5add45fd7c13ee2f08b5481d8f80fe433d8164ef139",
	"biglittle/steal":                 "1f0efe59b46cdf3920ec9f01843c06e73c05c5c0be7e1bc867ce1f40e354c36d",
	"cpu2gpu1/affinity":               "fc5bc29e25e33f21c611f7f810ca7df22320af26892140af5768ea8e6d6a0952",
	"cpu2gpu1/eft":                    "5d631e734bbf6752f38d3c81795b9cc2973350e3e5bd3a7b3a99b32f40e84a1f",
	"cpu2gpu1/steal":                  "b6ecf6930a7dbb70ae62a9d7d8ba68e1ff4ba7470e88e69010652401739e731c",
	"hetero/affinity":                 "cbe62f52d4e9ce9c6e7d8a4eeb1b196ea7bfa14224eba595f92ce1f599506755",
	"hetero/eft":                      "8d0b2b1baed729bf43352bd788a76c81cf78a98029d8eddee559c7d4cc8dc8bc",
	"hetero/steal":                    "87ca0767338dd206692603a69d75bafabcccedbab8bbf999e160c67fd132a29d",
	"cpu2gpu1+hold/affinity":          "bb2d0709b66ecc5dd56af7317e1936072c9d77f805a7a7da124af4e86067ae1a",
	"cpu2gpu1+hold/eft":               "73828a5ca7b7b13579096b5a29b6aa4510a63a63c78f20a3c5dc1b753c8abe2f",
	"cpu2gpu1+hold/steal":             "16e52b553674023ff9ae66f109b90dac07c763f4acefb419419ce1a11bcb37a9",
	"cpu1/affinity/nojitter":          "8a4c4eb0f9bbe4c186ef679d9648b78a6f16c405fbc014c57e4f24da61238799",
	"cpu1/eft/nojitter":               "8a4c4eb0f9bbe4c186ef679d9648b78a6f16c405fbc014c57e4f24da61238799",
	"cpu1/steal/nojitter":             "8a4c4eb0f9bbe4c186ef679d9648b78a6f16c405fbc014c57e4f24da61238799",
	"smt2/affinity/nojitter":          "37f9978518912b6e4105096f23406cec54362c6cb52df90ea6e0ddf729fed321",
	"smt2/eft/nojitter":               "c5fb9ccdd26490d7fb548aeaf80e8a9226555444681f08f3367be2aa81d6a2f1",
	"smt2/steal/nojitter":             "35cc1c0206c156c415b1efe1a8774a7dcd87636566e9e3d4ce5c97695396ad99",
	"cpu4/affinity/nojitter":          "b46b84efbff28ab2a0d7d15872c987227b85155ffceda6162fb9094678e416fd",
	"cpu4/eft/nojitter":               "528ce3e0a8d93afcbe383a76e2780f9e5f42050de06d04c9fbbce9b8317edf8f",
	"cpu4/steal/nojitter":             "da26efd915f1df24b1ef35842bf439b967f3a6c88d02ec8902d0ac93fda97354",
	"biglittle/affinity/nojitter":     "fb44079f73cb83014e2a648acc076ef668dd335a66f2e9c60be2665b5a0660c0",
	"biglittle/eft/nojitter":          "932e9d781bc20e7ad19d527ace8bf66c262b41596ee4797e9fa0d27a58ea8872",
	"biglittle/steal/nojitter":        "8a514a78d2371bb8e4c4aaacd018c950b5a8b2024d47e64a611ba2b330b7a098",
	"cpu2gpu1/affinity/nojitter":      "81780b55b482c59b5e8137540f2fcd7e6b3a086157fadc3184daded452b387ee",
	"cpu2gpu1/eft/nojitter":           "3a3013741f0d7465598bd84d85522c89bb24c3baecbecce1abfb3b24ad79db09",
	"cpu2gpu1/steal/nojitter":         "b1a027d2fa46abf760a72969ca27dfe84dc44c1a6f1f994f3ef53335e47cfc0e",
	"hetero/affinity/nojitter":        "a35f43fc22f237b624a99a3042d3382bd00947959ef4698d74649e0fe20291b4",
	"hetero/eft/nojitter":             "040b786f89b60c6b5c711747f4f606c2997f25bcac869e1edae8d9cbf0552f16",
	"hetero/steal/nojitter":           "5f0df822261482d7f55622f2899e82cb0a9287ab1001df112d2c5087eb7487a1",
	"cpu2gpu1+hold/affinity/nojitter": "5de34a7eace874fdae024cd9a914e978f9a9940fb8a6964fb17f41cc8b760fb9",
	"cpu2gpu1+hold/eft/nojitter":      "6e1eacb4bc208fd555dea526c26835fd757d507faa90e4920ad001e53e224057",
	"cpu2gpu1+hold/steal/nojitter":    "444e7c40ecf483713e4615e027021323041efc970a7034b11262e8a742196fe6",
}

// TestHetschedResultsPinned pins every Result field bit-for-bit for each
// named mix and the hold-window GPU mix under every policy, with an
// explicit warmup, with jitter and ("/nojitter") without it: the guard
// that a change to how the event loop finds its next device event leaves
// the schedule exactly where it was. Without jitter, identical devices
// finish batches at equal instants, so the cells also pin the
// lowest-device-index tie order.
func TestHetschedResultsPinned(t *testing.T) {
	g := testGraph()
	mixes := append(append([]string(nil), Mixes...), "cpu2gpu1+hold")
	for _, mix := range mixes {
		var devs []DeviceSpec
		if mix == "cpu2gpu1+hold" {
			devs = holdMix(t)
		} else {
			devs = mustMix(t, mix)
		}
		for _, pol := range AllPolicies {
			for _, jitter := range []float64{0.2, 0} {
				res := run(t, Config{
					Graph:          g,
					Devices:        devs,
					Policy:         pol,
					MeanArrivalMs:  ArrivalForUtilization(g, devs, 0.75),
					Requests:       400,
					WarmupRequests: 40,
					JitterFrac:     jitter,
					Seed:           7,
				})
				name := mix + "/" + pol.String()
				if jitter == 0 {
					name += "/nojitter"
				}
				if got, want := digest(res), hetschedResultPins[name]; got != want {
					t.Errorf("%s: result digest %s, pinned %s:\n%+v", name, got, want, res)
				}
			}
		}
	}
}
