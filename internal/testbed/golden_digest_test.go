package testbed

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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
	checkGolden(t, goldenDigestFile, got.String())
}

// checkGolden compares a digest recording against the golden file at
// path, or rewrites the file when UPDATE_GOLDEN is set. A mismatch fails
// the test with every differing row named (see goldenDiff), so the report
// says which scenarios and components changed rather than dumping two
// multi-KB blobs.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden recording (%v); run with UPDATE_GOLDEN=1 to create", err)
	}
	if got == string(want) {
		return
	}
	diffs := goldenDiff(string(want), got)
	if len(diffs) == 0 {
		t.Fatal("digest recordings differ (whitespace only?)")
	}
	t.Fatalf("%d digest rows differ from %s:\n  %s", len(diffs), path, strings.Join(diffs, "\n  "))
}

// goldenRows is one scenario of a recording: its named digest rows in
// recorded order.
type goldenRows struct {
	hash  map[string]string
	order []string
}

func (g *goldenRows) add(name, hash string) {
	g.hash[name] = hash
	g.order = append(g.order, name)
}

// parseGolden splits a recording into scenarios. Each unindented header
// line starts one, keyed by its fields minus frames= and combined=; those
// two fields and every indented "component=hash" line are its rows.
func parseGolden(rec string) (map[string]*goldenRows, []string) {
	byKey := map[string]*goldenRows{}
	var keys []string
	start := func(key string) *goldenRows {
		g := &goldenRows{hash: map[string]string{}}
		byKey[key] = g
		keys = append(keys, key)
		return g
	}
	var cur *goldenRows
	for _, line := range strings.Split(rec, "\n") {
		switch {
		case strings.TrimSpace(line) == "":
		case strings.HasPrefix(line, " "):
			if cur == nil {
				cur = start("")
			}
			name, hash, _ := strings.Cut(strings.TrimSpace(line), "=")
			cur.add(name, hash)
		default:
			var key []string
			var rows [][2]string
			for _, f := range strings.Fields(line) {
				if name, v, _ := strings.Cut(f, "="); name == "frames" || name == "combined" {
					rows = append(rows, [2]string{name, v})
				} else {
					key = append(key, f)
				}
			}
			cur = start(strings.Join(key, " "))
			for _, r := range rows {
				cur.add(r[0], r[1])
			}
		}
	}
	return byKey, keys
}

// goldenDiff lists, one line each, every row of recording got that
// differs from want: changed hashes (and frame counts), rows present in
// only one recording, and whole scenarios added or missing.
func goldenDiff(want, got string) []string {
	w, wKeys := parseGolden(want)
	g, gKeys := parseGolden(got)
	var out []string
	for _, key := range wKeys {
		ws, gs := w[key], g[key]
		if gs == nil {
			out = append(out, fmt.Sprintf("%s: scenario missing", key))
			continue
		}
		for _, name := range ws.order {
			switch gh, ok := gs.hash[name]; {
			case !ok:
				out = append(out, fmt.Sprintf("%s: %s missing (recorded %s)", key, name, ws.hash[name]))
			case gh != ws.hash[name]:
				out = append(out, fmt.Sprintf("%s: %s recorded %s, got %s", key, name, ws.hash[name], gh))
			}
		}
		for _, name := range gs.order {
			if _, ok := ws.hash[name]; !ok {
				out = append(out, fmt.Sprintf("%s: %s added (got %s)", key, name, gs.hash[name]))
			}
		}
	}
	for _, key := range gKeys {
		if w[key] == nil {
			out = append(out, fmt.Sprintf("%s: scenario added", key))
		}
	}
	return out
}

// TestGoldenDiffNamesChangedComponents checks the golden report on
// synthetic recordings: it must name exactly the rows that changed.
func TestGoldenDiffNamesChangedComponents(t *testing.T) {
	const base = `scenario=a seed=42 frames=3 combined=0x01
  engine=0x10
  receiver/nic=0x11
scenario=a shards=4 seed=42 frames=3 combined=0x02
  engine/s0=0x20
`
	for _, tc := range []struct {
		name string
		got  string
		want []string
	}{
		{"identical", base, nil},
		{"one component", strings.Replace(base, "receiver/nic=0x11", "receiver/nic=0x99", 1), []string{
			"scenario=a seed=42: receiver/nic recorded 0x11, got 0x99",
		}},
		{"combined and frames", strings.Replace(base, "frames=3 combined=0x02", "frames=4 combined=0x03", 1), []string{
			"scenario=a shards=4 seed=42: frames recorded 3, got 4",
			"scenario=a shards=4 seed=42: combined recorded 0x02, got 0x03",
		}},
		{"component missing and added", strings.Replace(base, "  receiver/nic=0x11\n", "  receiver/iio=0x12\n", 1), []string{
			"scenario=a seed=42: receiver/nic missing (recorded 0x11)",
			"scenario=a seed=42: receiver/iio added (got 0x12)",
		}},
		{"scenario missing", base[:strings.Index(base, "scenario=a shards")], []string{
			"scenario=a shards=4 seed=42: scenario missing",
		}},
		{"scenario added", base + "scenario=b seed=42 frames=1 combined=0x04\n  engine=0x40\n", []string{
			"scenario=b seed=42: scenario added",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := goldenDiff(base, tc.got); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("goldenDiff =\n  %s\nwant\n  %s", strings.Join(got, "\n  "), strings.Join(tc.want, "\n  "))
			}
		})
	}
}
