package crucible

// SearchConfig parameterizes one chaos search.
type SearchConfig struct {
	// SeedStart is the first generator seed (default 1).
	SeedStart int64
	// Seeds is how many consecutive seeds to try (default 16).
	Seeds int
	// Gen parameterizes the scenario generator.
	Gen GenConfig
	// ShrinkBudget bounds Run calls per shrink (default 40).
	ShrinkBudget int
	// StopAtFirst ends the search at the first failing scenario.
	StopAtFirst bool
	// Log, when set, receives one progress line per scenario.
	Log func(format string, args ...any)
}

func (c SearchConfig) withDefaults() SearchConfig {
	if c.SeedStart == 0 {
		c.SeedStart = 1
	}
	if c.Seeds == 0 {
		c.Seeds = 16
	}
	if c.ShrinkBudget == 0 {
		c.ShrinkBudget = 40
	}
	return c
}

// Finding is one failing scenario with its minimized form.
type Finding struct {
	Seed       int64
	Scenario   Scenario
	Verdict    Verdict
	Minimized  Scenario
	MinVerdict Verdict
	ShrinkRuns int
}

// Repro packages the finding as a corpus artifact.
func (f Finding) Repro(note string) Repro {
	return Repro{
		Version:          ReproVersion,
		Note:             note,
		FoundSeed:        f.Seed,
		ExpectedFailures: f.MinVerdict.FailedOracles(),
		Scenario:         f.Minimized,
	}
}

// Stats is the search's scenario and oracle accounting.
type Stats struct {
	// Scenarios counts generated scenarios; Runs counts oracle-battery
	// executions (each is two engine runs); ShrinkRuns counts the subset
	// spent minimizing; Failures counts failing scenarios.
	Scenarios  int
	Runs       int
	ShrinkRuns int
	Failures   int
	// ByOracle counts failing scenarios per failed oracle name.
	ByOracle map[string]int
}

// Result is one completed search.
type Result struct {
	Findings []Finding
	Stats    Stats
}

// Search sweeps generator seeds, runs each scenario's oracle battery,
// and delta-debugs every failure to a minimal repro. Deterministic:
// identical configs produce identical results, finding for finding.
func Search(cfg SearchConfig) Result {
	cfg = cfg.withDefaults()
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	res := Result{Stats: Stats{ByOracle: map[string]int{}}}
	for i := 0; i < cfg.Seeds; i++ {
		seed := cfg.SeedStart + int64(i)
		sc := Generate(seed, cfg.Gen)
		res.Stats.Scenarios++
		v, err := Run(sc)
		res.Stats.Runs++
		if err != nil {
			// Generate guarantees validity; a scenario Run rejects is a
			// generator bug worth surfacing loudly.
			panic("crucible: generated scenario invalid: " + err.Error())
		}
		if v.Pass() {
			logf("seed %d: pass (baseline %.1f Gbps)", seed, v.BaselineGbps)
			continue
		}
		res.Stats.Failures++
		for _, name := range v.FailedOracles() {
			res.Stats.ByOracle[name]++
		}
		logf("seed %d: FAIL %s — shrinking...", seed, v.Signature())
		minSc, runs := Shrink(sc, v.Signature(), cfg.ShrinkBudget)
		res.Stats.Runs += runs
		res.Stats.ShrinkRuns += runs
		minV, err := Run(minSc)
		res.Stats.Runs++
		if err != nil {
			panic("crucible: shrunk scenario invalid: " + err.Error())
		}
		logf("seed %d: minimized to %d injection(s) in %d runs: %s",
			seed, len(minSc.Faults), runs, minV.Signature())
		res.Findings = append(res.Findings, Finding{
			Seed:       seed,
			Scenario:   sc,
			Verdict:    v,
			Minimized:  minSc,
			MinVerdict: minV,
			ShrinkRuns: runs,
		})
		if cfg.StopAtFirst {
			break
		}
	}
	return res
}
