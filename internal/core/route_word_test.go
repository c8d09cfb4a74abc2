package core

import (
	"errors"
	"strings"
	"testing"

	"asyncnoc/internal/chiplet"
	"asyncnoc/internal/network"
)

// TestWideRouteSpecsFailValidate closes the radix-64 hole: a multicast
// placement that needs more than the 64-bit route word must fail
// Validate, naming the bit count and the limit, and a run of it must
// stop there rather than reach the simulator and surface as a protocol
// violation. Placements that fit keep validating.
func TestWideRouteSpecsFailValidate(t *testing.T) {
	wide := []struct {
		spec network.Spec
		bits string
	}{
		{BasicNonSpeculative(64), "126"},
		{OptNonSpeculative(64), "126"},
		{BasicHybridSpeculative(64), "84"},
		{OptHybridSpeculative(64), "84"},
		{WithChiplet(OptHybridSpeculative(64), chiplet.Default(2, 2)), "84"},
		{WithChiplet(BasicNonSpeculative(64), chiplet.Default(2, 1)), "126"},
	}
	for _, c := range wide {
		err := c.spec.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted a %s-bit route", c.spec.Name, c.bits)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, c.bits+" route address bits") || !strings.Contains(msg, "64-bit route word") {
			t.Errorf("%s: error %q does not name %s bits and the 64-bit limit", c.spec.Name, msg, c.bits)
		}
		_, runErr := Run(c.spec, DefaultRunConfig(64))
		var pe *ProtocolError
		if runErr == nil || errors.As(runErr, &pe) {
			t.Errorf("%s: Run returned %v, want the Validate error", c.spec.Name, runErr)
		}
	}
	for _, spec := range []network.Spec{Baseline(64), OptAllSpeculative(64), OptHybridSpeculative(32)} {
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
}
