package exp

import (
	"context"
	"testing"

	"dlrmsim/internal/check"
)

// TestCheckModeCleanRun: with runtime invariant assertions enabled (the
// CLI's -check flag), a representative slice of the registry still
// completes — engine, memory hierarchy, serving, the closed-loop cluster
// (clu1), faults and mitigation (clu4), the open loop (clu6), chaos with
// adaptive control (clu8), and hetsched (het1). An invariant that fires
// on healthy configs would make -check useless for debugging real
// regressions.
func TestCheckModeCleanRun(t *testing.T) {
	defer func(old bool) { check.Enabled = old }(check.Enabled)
	check.Enabled = true
	ids := []string{"fig1", "fig17", "clu1", "clu4", "clu6", "clu8", "het1"}
	if _, err := RunAll(context.Background(), tinyContext(), ids, 2); err != nil {
		t.Errorf("check-mode run failed: %v", err)
	}
}
