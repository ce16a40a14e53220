package evalharness

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/testbed"
)

// TestConfigValidateRejects: every invalid axis or parameter is caught
// with an identifying message.
func TestConfigValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"unknown-scheme", func(c *Config) { c.Schemes = []string{"vegas"} }, "vegas"},
		{"unknown-topology", func(c *Config) { c.Topologies = []string{"torus"} }, "torus"},
		{"unknown-workload", func(c *Config) { c.Workloads = []string{"shuffle"} }, "shuffle"},
		{"unknown-arm", func(c *Config) { c.Arms = []string{"maybe"} }, "arm"},
		{"empty-axis", func(c *Config) { c.Schemes = []string{} }, "empty matrix axis"},
		{"negative-warmup", func(c *Config) { c.Warmup = -sim.Millisecond }, "Warmup"},
		{"negative-measure", func(c *Config) { c.Measure = -sim.Millisecond }, "Warmup"},
		{"sample-above-measure", func(c *Config) {
			c.Measure = sim.Millisecond
			c.SampleEvery = 2 * sim.Millisecond
		}, "SampleEvery"},
		{"negative-digest-every", func(c *Config) { c.DigestEvery = -1 }, "DigestEvery"},
		{"tol-too-big", func(c *Config) { c.ConvergenceTol = 1 }, "ConvergenceTol"},
		{"negative-rpc-size", func(c *Config) { c.RPCSize = -1 }, "RPCSize"},
		{"negative-workers", func(c *Config) { c.Workers = -1 }, "Workers"},
		{"negative-shards", func(c *Config) { c.Shards = -2 }, "Shards"},
		{"shards-above-bound", func(c *Config) { c.Shards = testbed.MaxShards + 1 }, "Shards"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cfg Config
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid config")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not identify %q", err, tc.want)
			}
		})
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config (all defaults) rejected: %v", err)
	}
}

// TestCellSpecValidateRejects: the per-cell spec rejects unknown names.
func TestCellSpecValidateRejects(t *testing.T) {
	good := CellSpec{Scheme: "dctcp", Topology: "star", Workload: "fanin"}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for name, spec := range map[string]CellSpec{
		"scheme":   {Scheme: "vegas", Topology: "star", Workload: "fanin"},
		"topology": {Scheme: "dctcp", Topology: "torus", Workload: "fanin"},
		"workload": {Scheme: "dctcp", Topology: "star", Workload: "shuffle"},
	} {
		if spec.Validate() == nil {
			t.Fatalf("invalid %s accepted", name)
		}
	}
}

// miniConfig is a cheap two-scheme, one-pane matrix used by the
// behavioral tests.
func miniConfig() Config {
	return Config{
		Schemes:    []string{"dctcp", "bbr"},
		Topologies: []string{"star"},
		Workloads:  []string{"hostbound"},
		Warmup:     500 * sim.Microsecond,
		// Long enough for the victim flow to complete RPCs even when the
		// host-bottleneck arm drives it into MinRTO recovery.
		Measure: 4 * sim.Millisecond,
	}
}

// TestRunMiniMatrix: the matrix runner produces one verified cell per
// spec in deterministic order, pairs the arms, and ranks the pane.
func TestRunMiniMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full testbed cells; skipped in -short")
	}
	rep, err := Run(miniConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 4 { // 2 schemes × 1 topo × 1 workload × 2 arms
		t.Fatalf("got %d cells, want 4", len(rep.Cells))
	}
	wantOrder := []CellSpec{
		{Scheme: "dctcp", Topology: "star", Workload: "hostbound", HostCC: false},
		{Scheme: "dctcp", Topology: "star", Workload: "hostbound", HostCC: true},
		{Scheme: "bbr", Topology: "star", Workload: "hostbound", HostCC: false},
		{Scheme: "bbr", Topology: "star", Workload: "hostbound", HostCC: true},
	}
	for i, c := range rep.Cells {
		w := wantOrder[i]
		if c.Scheme != w.Scheme || c.HostCC != w.HostCC {
			t.Fatalf("cell %d is %s/hostcc=%v, want %s/hostcc=%v",
				i, c.Scheme, c.HostCC, w.Scheme, w.HostCC)
		}
		if !c.Verified {
			t.Fatalf("cell %d not replay-verified", i)
		}
		if c.GoodputGbps <= 0 {
			t.Fatalf("cell %d reports no goodput", i)
		}
		if c.Jain <= 0 || c.Jain > 1 {
			t.Fatalf("cell %d Jain %v outside (0,1]", i, c.Jain)
		}
		if c.VictimRPCs <= 0 {
			t.Fatalf("cell %d recorded no victim RPCs", i)
		}
		if c.HostCC && c.GoodputVsOffPct == 0 {
			t.Fatalf("cell %d (on arm) has no vs-off comparison", i)
		}
		// Both arms of one scheme share a seed (paired comparison).
		if i%2 == 1 && c.Seed != rep.Cells[i-1].Seed {
			t.Fatalf("arms of %s use different seeds", c.Scheme)
		}
	}
	if len(rep.Rankings) != 1 {
		t.Fatalf("got %d rankings, want 1", len(rep.Rankings))
	}
	r := rep.Rankings[0]
	if len(r.Off) != 2 || len(r.On) != 2 {
		t.Fatalf("ranking arms incomplete: off=%v on=%v", r.Off, r.On)
	}

	// The report is a pure function of the cells: markdown and JSON are
	// non-empty and carry every scheme.
	md := rep.Markdown()
	for _, s := range []string{"dctcp", "bbr", "### star / hostbound", "Scheme ranking"} {
		if !strings.Contains(md, s) {
			t.Fatalf("markdown missing %q", s)
		}
	}
	if _, err := rep.JSON(); err != nil {
		t.Fatal(err)
	}
}

// TestRunDeterministic: two executions of the same matrix render
// byte-identical reports (the eval-smoke gate, in-process).
func TestRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full testbed cells; skipped in -short")
	}
	cfg := miniConfig()
	cfg.Schemes = []string{"hpcc"}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Markdown() != b.Markdown() {
		t.Fatal("two runs of the same matrix rendered different reports")
	}
}

// TestRunRejectsInvalid: Run surfaces validation errors instead of
// running a partial matrix.
func TestRunRejectsInvalid(t *testing.T) {
	if _, err := Run(Config{Schemes: []string{"vegas"}}); err == nil {
		t.Fatal("Run accepted an unknown scheme")
	}
}
