package workload

import "repro/internal/synth"

// Named presets, the one definition of the scenarios standing in for
// the paper's two clouds (§3): "azure" for the Azure V1 trace (strong
// diurnal pattern, no growth) and "huawei" for the Huawei Cloud trace
// (growth that levels off, lifetimes that shorten over the history —
// Figure 8's regime change). "mixed" is the README's three-cohort
// scenario: interactive Poisson traffic, a bursty Gamma batch tier, and
// a regular Weibull GPU tier over the Azure catalog.

// PresetNames lists the named presets in stable order.
func PresetNames() []string {
	return []string{"azure", "huawei", "mixed"}
}

// Preset returns a fresh copy of the named preset spec, or nil if the
// name is unknown. Callers own the returned spec and may mutate it.
func Preset(name string) *Spec {
	switch name {
	case "azure":
		return azureSpec()
	case "huawei":
		return huaweiSpec()
	case "mixed":
		return mixedSpec()
	}
	return nil
}

// PresetConfig is Load for callers that name a preset literally. The
// presets compile (golden_test.go), so it panics only on a misspelt
// name, with Load's error listing the presets.
func PresetConfig(name string) synth.Config {
	_, cfg, err := Load(name)
	if err != nil {
		panic(err)
	}
	return cfg
}

func azureSpec() *Spec {
	return &Spec{
		Version: SpecVersion,
		Name:    "AzureLike",
		Days:    30,
		Users:   400,
		Flavors: FlavorsSpec{Catalog: "azure16"},
		Arrival: ArrivalBlock{
			BaseRate:         5,
			DiurnalAmplitude: 0.45,
			WeekendDip:       0.6,
			DayEffectSigma:   0.30,
		},
		Batch: BatchSpec{
			SizeMean:        2.6,
			RepeatFlavorP:   0.85,
			RepeatLifetimeP: 0.8,
			TemplateP:       0.35,
		},
		Population: PopulationSpec{
			Zipf:          1.1,
			FavoriteCount: 3,
			Persistence:   0.45,
		},
		Lifetime: LifetimeSpec{
			MuMinSeconds: 8 * 60,
			MuMaxSeconds: 2 * 86400,
			Sigma:        1.0,
			FlavorEffect: 0.7,
		},
	}
}

func huaweiSpec() *Spec {
	return &Spec{
		Version: SpecVersion,
		Name:    "HuaweiLike",
		Days:    60, // scaled stand-in for the paper's 10 months
		Users:   300,
		Flavors: FlavorsSpec{Catalog: "huawei259"},
		Arrival: ArrivalBlock{
			BaseRate:         1.6,
			DiurnalAmplitude: 0.3,
			WeekendDip:       0.75,
			DayEffectSigma:   0.15,
			Growth: &ScheduleSpec{
				Kind:      "logistic",
				Base:      0.45,
				Amplitude: 0.55,
				Steepness: 10,
				Midpoint:  0.45,
			},
		},
		Batch: BatchSpec{
			SizeMean:        3.2,
			RepeatFlavorP:   0.92,
			RepeatLifetimeP: 0.85,
			TemplateP:       0.25,
		},
		Population: PopulationSpec{
			Zipf:          1.2,
			FavoriteCount: 2,
			Persistence:   0.5,
		},
		Lifetime: LifetimeSpec{
			MuMinSeconds: 20 * 60,
			MuMaxSeconds: 8 * 86400,
			Sigma:        1.0,
			FlavorEffect: 0.5,
			Shift: &ScheduleSpec{
				Kind:  "linear-decay",
				Scale: 1.2,
				Until: 0.75,
			},
		},
	}
}

func mixedSpec() *Spec {
	s := azureSpec()
	s.Name = "MixedCohorts"
	s.Cohorts = []CohortSpec{
		{
			Name:         "interactive",
			RateFraction: 0.5,
			Users:        240,
			SLOClass:     "critical",
			Arrival:      ArrivalProcessSpec{Process: "poisson"},
		},
		{
			Name:         "batch",
			RateFraction: 0.3,
			Users:        120,
			SLOClass:     "batch",
			Arrival:      ArrivalProcessSpec{Process: "gamma", CV: 2},
			Batch: &BatchSpec{
				SizeMean:        4.0,
				RepeatFlavorP:   0.9,
				RepeatLifetimeP: 0.85,
				TemplateP:       0.1,
			},
			Lifetime: &LifetimeOverride{
				MuMinSeconds: 3600,
				MuMaxSeconds: 4 * 86400,
				Sigma:        1.2,
			},
		},
		{
			Name:         "gpu",
			RateFraction: 0.2,
			Users:        40,
			SLOClass:     "best-effort",
			Arrival:      ArrivalProcessSpec{Process: "weibull", CV: 0.5},
			Population: &PopulationSpec{
				Zipf:          1.0,
				FavoriteCount: 2,
				Persistence:   0.3,
			},
			Lifetime: &LifetimeOverride{
				MuMinSeconds: 6 * 3600,
				MuMaxSeconds: 8 * 86400,
				Sigma:        0.8,
			},
			FlavorPrefix: "A8",
		},
	}
	return s
}
