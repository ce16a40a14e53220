package crucible

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"
)

// Every generated scenario must pass its own validation — the generator
// is constrained so illegal combinations cannot be drawn.
func TestGenerateAlwaysValid(t *testing.T) {
	drawn := map[string]int{}
	for seed := int64(1); seed <= 200; seed++ {
		sc := Generate(seed, GenConfig{})
		if err := sc.Validate(); err != nil {
			t.Fatalf("seed %d generates invalid scenario: %v", seed, err)
		}
		if len(sc.Faults) == 0 {
			t.Fatalf("seed %d generates no faults", seed)
		}
		if sc.MeasureNs <= 0 || sc.WarmupNs <= 0 {
			t.Fatalf("seed %d: non-positive windows", seed)
		}
		drawn[sc.CC]++
	}
	// Chaos search must cover the rate-based registry additions: across
	// 200 seeds the lossy draw has to surface both bbr and hpcc.
	for _, cc := range []string{"dctcp", "reno", "cubic", "dcqcn", "bbr", "hpcc"} {
		if drawn[cc] == 0 {
			t.Fatalf("200 seeds never drew cc=%q (draws: %v)", cc, drawn)
		}
	}
}

// The seed → scenario mapping is deterministic and JSON round-trips
// losslessly.
func TestGenerateDeterministicAndJSONRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		a := Generate(seed, GenConfig{})
		b := Generate(seed, GenConfig{})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
		blob, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		var c Scenario
		if err := json.Unmarshal(blob, &c); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, c) {
			t.Fatalf("seed %d: scenario does not survive JSON round trip", seed)
		}
		pa, err := a.Plan()
		if err != nil {
			t.Fatal(err)
		}
		pc, err := c.Plan()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pa, pc) {
			t.Fatalf("seed %d: fault plan does not survive JSON round trip", seed)
		}
	}
}

func TestScenarioValidateRejects(t *testing.T) {
	base := Generate(1, GenConfig{})
	for name, mutate := range map[string]func(*Scenario){
		"unknown-kind":     func(s *Scenario) { s.Faults[0].Kind = "warp-core-breach" },
		"unknown-topology": func(s *Scenario) { s.Topology = "torus" },
		"unknown-cc":       func(s *Scenario) { s.CC = "vegas" },
		"unknown-canary":   func(s *Scenario) { s.Canary = "gremlin" },
		"negative-count":   func(s *Scenario) { s.Faults[0].Count = -1 },
		"zero-warmup":      func(s *Scenario) { s.WarmupNs = 0 },
	} {
		sc := clone(base)
		mutate(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid scenario", name)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base scenario invalid: %v", err)
	}
}

func TestVerdictSignature(t *testing.T) {
	v := Verdict{}
	if v.Signature() != "pass" || !v.Pass() {
		t.Fatalf("empty verdict: got %q", v.Signature())
	}
	v.Failures = []Failure{
		{Oracle: OracleLiveness, Detail: "x"},
		{Oracle: OracleDeterminism, Detail: "y"},
		{Oracle: OracleLiveness, Detail: "z"}, // duplicate oracle collapses
	}
	if got := v.Signature(); got != "determinism+liveness" {
		t.Fatalf("signature = %q, want determinism+liveness", got)
	}
	if got := v.FailedOracles(); !reflect.DeepEqual(got, []string{"determinism", "liveness"}) {
		t.Fatalf("failed oracles = %v", got)
	}
}

// A handful of clean seeds must pass the full oracle battery — the
// generator's false-positive guard in tier-1 (the wider sweep runs in
// the crucible-smoke CI target).
func TestCleanSeedsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("full oracle battery is slow under -short")
	}
	for seed := int64(1); seed <= 4; seed++ {
		sc := Generate(seed, GenConfig{})
		v, err := Run(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !v.Pass() {
			t.Errorf("seed %d: %s", seed, v)
		}
		if v.Frames == 0 {
			t.Errorf("seed %d: no digest frames recorded", seed)
		}
		if v.InvariantChecks == 0 {
			t.Errorf("seed %d: invariant checker never audited", seed)
		}
	}
}

func TestReproReadWriteValidate(t *testing.T) {
	r := Repro{
		Version:          ReproVersion,
		Note:             "round trip",
		FoundSeed:        7,
		ExpectedFailures: []string{OraclePanic},
		Scenario:         Generate(7, GenConfig{Canary: CanaryPCIeExtraCredit}),
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := WriteRepro(path, r); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatalf("repro does not round-trip:\n%+v\n%+v", r, got)
	}

	bad := r
	bad.ExpectedFailures = nil
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted a repro with no expected failures")
	}
	bad = r
	bad.Version = 99
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted an unknown repro version")
	}
}
