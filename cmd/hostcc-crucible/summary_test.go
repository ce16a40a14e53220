package main

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/crucible"
)

// TestSummaryOracleOrder: the per-oracle failure lines come out in name
// order whatever the map's iteration order, so two identical searches
// print identical summaries.
func TestSummaryOracleOrder(t *testing.T) {
	st := crucible.Stats{
		Scenarios: 8, Runs: 30, ShrinkRuns: 20, Failures: 4,
		ByOracle: map[string]int{
			crucible.OracleVictim:      1,
			crucible.OracleDeterminism: 2,
			crucible.OraclePanic:       3,
			crucible.OracleGoodput:     4,
			crucible.OracleInvariant:   5,
			crucible.OracleLiveness:    6,
		},
	}
	want := "searched 8 scenario(s), 30 battery run(s) (20 shrinking) in 1.5s: 4 failure(s)\n" +
		"  failed determinism: 2\n" +
		"  failed goodput-floor: 4\n" +
		"  failed invariant: 5\n" +
		"  failed liveness: 6\n" +
		"  failed panic: 3\n" +
		"  failed victim-p999: 1\n"
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		writeSummary(&buf, st, 1500*time.Millisecond)
		if got := buf.String(); got != want {
			t.Fatalf("summary:\n%s\nwant:\n%s", got, want)
		}
	}
}
