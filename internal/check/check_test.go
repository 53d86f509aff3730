package check

import (
	"math"
	"strings"
	"testing"
)

func TestAssertDisabledIsNoOp(t *testing.T) {
	defer func(old bool) { Enabled = old }(Enabled)
	Enabled = false
	Assert(false, "must not fire when disabled")
}

func TestAssertEnabledPanicsWithMessage(t *testing.T) {
	defer func(old bool) { Enabled = old }(Enabled)
	Enabled = true
	Assert(true, "must not fire on a true condition")
	defer func() {
		r := recover()
		s, ok := r.(string)
		if !ok || !strings.Contains(s, "invariant violated") || !strings.Contains(s, "x=7") {
			t.Errorf("panic = %v, want formatted invariant message", r)
		}
	}()
	Assert(false, "x=%d", 7)
	t.Fatal("Assert(false) did not panic with Enabled set")
}

func TestRangeChecksRejectNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		x                float64
		nonNeg, positive bool
	}{
		{0, true, false}, {1e300, true, true}, {-1, false, false},
		{nan, false, false}, {inf, false, false}, {-inf, false, false},
	} {
		if NonNeg(tc.x) != tc.nonNeg || Positive(tc.x) != tc.positive {
			t.Errorf("NonNeg(%g), Positive(%g) = %v, %v; want %v, %v",
				tc.x, tc.x, NonNeg(tc.x), Positive(tc.x), tc.nonNeg, tc.positive)
		}
	}
}
