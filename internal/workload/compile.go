package workload

import (
	"fmt"
	"math"

	"repro/internal/synth"
	"repro/internal/trace"
)

// Compile lowers a validated spec to a synth.Config. The base blocks
// become the config's own Population, which is all a spec without
// cohorts generates from. Each cohort's Population is the base blocks
// with its overrides swapped in, and each arrival process compiles to
// its sampler.
func (s *Spec) Compile() (synth.Config, error) {
	if err := s.Validate(); err != nil {
		return synth.Config{}, err
	}
	fs, err := s.Flavors.FlavorSet()
	if err != nil {
		return synth.Config{}, err
	}
	life := LifetimeOverride{MuMinSeconds: s.Lifetime.MuMinSeconds, MuMaxSeconds: s.Lifetime.MuMaxSeconds, Sigma: s.Lifetime.Sigma}
	cfg := synth.Config{
		Name:             s.Name,
		Days:             s.Days,
		Flavors:          fs,
		BaseRate:         s.Arrival.BaseRate,
		DiurnalAmp:       s.Arrival.DiurnalAmplitude,
		WeekendDip:       s.Arrival.WeekendDip,
		DayEffect:        s.Arrival.DayEffectSigma,
		Population:       population(s.Users, s.Population, s.Batch, life),
		FlavorLifeEffect: s.Lifetime.FlavorEffect,
	}
	days := float64(s.Days)
	if s.Arrival.Growth != nil {
		cfg.Growth = s.Arrival.Growth.dayFunc(days)
	}
	if s.Lifetime.Shift != nil {
		cfg.LifeShift = s.Lifetime.Shift.dayFunc(days)
	}
	if len(s.Cohorts) == 0 {
		return cfg, nil
	}

	names := make([]string, fs.K())
	for i, d := range fs.Defs {
		names[i] = d.Name
	}
	cohorts := make([]synth.Cohort, len(s.Cohorts))
	for i := range s.Cohorts {
		co := &s.Cohorts[i]
		sampler, err := co.Arrival.Sampler()
		if err != nil {
			return synth.Config{}, err
		}
		subset, err := cohortFlavorSubset(co, names)
		if err != nil {
			return synth.Config{}, err
		}
		// Cohorts that omit "users" split the spec-level pool by rate
		// fraction (at least one user each).
		users := co.Users
		if users == 0 {
			users = max(1, int(math.Round(co.RateFraction*float64(s.Users))))
		}
		pop, batch, coLife := s.Population, s.Batch, life
		if co.Population != nil {
			pop = *co.Population
		}
		if co.Batch != nil {
			batch = *co.Batch
		}
		if co.Lifetime != nil {
			coLife = *co.Lifetime
		}
		cohorts[i] = synth.Cohort{
			Name:         co.Name,
			RateFraction: co.RateFraction,
			Arrival:      sampler,
			SLOClass:     co.SLOClass,
			Population:   population(users, pop, batch, coLife),
			FlavorSubset: subset,
		}
	}
	cfg.Cohorts = cohorts
	return cfg, nil
}

// population lowers one population's blocks to synth's form, moving
// the lifetime bounds to log space.
func population(users int, pop PopulationSpec, batch BatchSpec, life LifetimeOverride) synth.Population {
	return synth.Population{
		Users:           users,
		UserZipf:        pop.Zipf,
		FavoriteCount:   pop.FavoriteCount,
		Persistence:     pop.Persistence,
		BatchSizeMean:   batch.SizeMean,
		RepeatFlavorP:   batch.RepeatFlavorP,
		RepeatLifetimeP: batch.RepeatLifetimeP,
		TemplateP:       batch.TemplateP,
		LifeMuMin:       math.Log(life.MuMinSeconds),
		LifeMuMax:       math.Log(life.MuMaxSeconds),
		LifeSigma:       life.Sigma,
	}
}

// FlavorSet materializes the spec's flavor catalog.
func (f *FlavorsSpec) FlavorSet() (*trace.FlavorSet, error) {
	switch f.Catalog {
	case "azure16":
		return synth.AzureFlavors(), nil
	case "huawei259":
		return synth.HuaweiFlavors(), nil
	case "":
		fs := &trace.FlavorSet{Defs: make([]trace.FlavorDef, len(f.Defs))}
		for i, d := range f.Defs {
			fs.Defs[i] = trace.FlavorDef{Name: d.Name, CPU: d.CPU, MemGB: d.MemGB}
		}
		return fs, nil
	}
	return nil, fmt.Errorf("workload: unknown flavor catalog %q", f.Catalog)
}

// dayFunc compiles a schedule to the day-indexed multiplier/shift form
// synth.Config carries. The huawei preset's trace digests
// (golden_test.go) pin the formulas term for term: reordering one moves
// the ground truth's bytes.
func (sc *ScheduleSpec) dayFunc(days float64) func(day int) float64 {
	switch sc.Kind {
	case "logistic":
		base, amp, steep, mid := sc.Base, sc.Amplitude, sc.Steepness, sc.Midpoint
		return func(day int) float64 {
			x := float64(day) / days
			return base + amp/(1+math.Exp(-steep*(x-mid)))
		}
	case "linear-decay":
		scale, until := sc.Scale, sc.Until
		return func(day int) float64 {
			x := float64(day) / days
			return scale * math.Max(0, 1-x/until)
		}
	}
	// Validate rejects unknown kinds before compilation can get here.
	panic(fmt.Sprintf("workload: unvalidated schedule kind %q", sc.Kind))
}
