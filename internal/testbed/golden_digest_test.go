package testbed

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

// goldenDigestFile holds per-scenario digest recordings captured before the
// allocation-free scheduler/datapath rewrite. The rewrite is required to be
// behaviour-identical, so every builtin chaos scenario re-run with the same
// seed and recording cadence must reproduce these digests exactly — engine
// clock, event counts, every component's counters and queue state included.
//
// Regenerate (only when an intentional behaviour change is made) with:
//
//	UPDATE_GOLDEN=1 go test ./internal/testbed -run TestGoldenDigestsMatchRecorded
const goldenDigestFile = "testdata/golden_digests.txt"

const goldenSeed = 42

func goldenChaosConfig(scenario string) ChaosConfig {
	return ChaosConfig{
		Scenario:    scenario,
		Seed:        goldenSeed,
		DigestEvery: 500 * sim.Microsecond,
	}
}

// goldenShardedScenarios are recorded a second time on a 4-shard engine:
// trunk-flap exercises the per-shard fault seams, pfc-storm the storm
// trunks' pause seams on their owning shards.
var goldenShardedScenarios = []string{"trunk-flap", "pfc-storm"}

const goldenShards = 4

func formatGolden(res ChaosResult, shards int) string {
	var b strings.Builder
	name := res.Scenario
	if shards > 1 {
		name = fmt.Sprintf("%s shards=%d", res.Scenario, shards)
	}
	fmt.Fprintf(&b, "scenario=%s seed=%d frames=%d combined=%#016x\n",
		name, res.Seed, res.Frames, res.Digest)
	for _, d := range res.ComponentDigests {
		fmt.Fprintf(&b, "  %s=%#016x\n", d.Component, d.Hash)
	}
	return b.String()
}

// TestGoldenDigestsMatchRecorded runs every builtin chaos scenario with
// digest recording and compares the full per-component digest breakdown
// against the pre-rewrite recordings. Any divergence in event scheduling
// order, RNG draws, packet handling or component state shows up here as a
// mismatched component hash.
func TestGoldenDigestsMatchRecorded(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos suite")
	}
	var got strings.Builder
	for _, sc := range ChaosScenarios() {
		res, err := RunChaos(goldenChaosConfig(sc))
		if err != nil {
			t.Fatalf("chaos %s: %v", sc, err)
		}
		if res.Frames == 0 {
			t.Fatalf("chaos %s: no digest frames recorded", sc)
		}
		got.WriteString(formatGolden(res, 0))
	}
	for _, sc := range goldenShardedScenarios {
		cfg := goldenChaosConfig(sc)
		cfg.Shards = goldenShards
		res, err := RunChaos(cfg)
		if err != nil {
			t.Fatalf("chaos %s x%d: %v", sc, goldenShards, err)
		}
		if res.Frames == 0 {
			t.Fatalf("chaos %s x%d: no digest frames recorded", sc, goldenShards)
		}
		got.WriteString(formatGolden(res, goldenShards))
	}

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenDigestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDigestFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded golden digests for %d scenarios", len(ChaosScenarios()))
		return
	}

	want, err := os.ReadFile(goldenDigestFile)
	if err != nil {
		t.Fatalf("no golden recording (%v); run with UPDATE_GOLDEN=1 to create", err)
	}
	if got.String() == string(want) {
		return
	}
	// Pinpoint the first differing line so the report names the scenario
	// and component rather than dumping two multi-KB blobs.
	gs := bufio.NewScanner(strings.NewReader(got.String()))
	ws := bufio.NewScanner(strings.NewReader(string(want)))
	line := 0
	for {
		gok, wok := gs.Scan(), ws.Scan()
		line++
		if !gok && !wok {
			break
		}
		if gs.Text() != ws.Text() {
			t.Fatalf("digest divergence at line %d:\n  recorded: %s\n  got:      %s",
				line, ws.Text(), gs.Text())
		}
		if gok != wok {
			t.Fatalf("digest recording length changed at line %d (recorded %v, got %v)", line, wok, gok)
		}
	}
	t.Fatal("digest recordings differ (whitespace only?)")
}
