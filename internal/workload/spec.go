// Package workload is the declarative multi-client workload-spec layer
// (ROADMAP item 1): a stdlib-only JSON grammar describing heterogeneous
// client cohorts — per-cohort rate fractions, arrival processes
// (Poisson, bursty Gamma, Weibull, all with CV knobs), flavor and
// lifetime distribution overrides, SLO classes, and diurnal/trend
// schedules — that compiles to a synth.Config, the named presets that
// are the only definition of the scenarios standing in for the paper's
// two clouds (presets.go), and a versioned trace record/replay format
// (record.go) so traffic emitted by /generate or the experiments can be
// replayed deterministically.
//
// Parsing is strict (unknown fields are errors) and validates before
// allocating anything proportional to declared sizes: a hostile spec or
// trace record fails fast on its header, never by exhausting memory
// (DESIGN.md §9).
package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/synth"
)

// SpecVersion is the current workload-spec grammar version. Version 1
// is the grammar this file defines; parsers reject anything else so a
// future v2 can change semantics without silently misreading v1 files.
const SpecVersion = 1

// Grammar caps: every count or magnitude a spec can declare is bounded
// before it is used to size anything. The caps are generous for real
// scenarios and tiny next to memory.
const (
	// MaxSpecBytes bounds a spec document.
	MaxSpecBytes = 1 << 20
	maxNameLen   = 128
	maxDays      = 3650 // ten years of history
	maxUsers     = 1_000_000
	maxFlavors   = 4096
	maxCohorts   = 64
	maxBaseRate  = 1e6
	maxCV        = 20
	minCV        = 0.05
)

// Spec is the top-level workload description. Base blocks (Arrival,
// Batch, Population, Lifetime) define the scenario-wide process; the
// optional Cohorts list splits the aggregate rate across heterogeneous
// client populations, each able to override the base blocks.
type Spec struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	// Days is the history length the scenario generates/trains on.
	Days int `json:"days"`
	// Users is the population size (a spec without cohorts), or the pool the
	// compiler splits by rate fraction for cohorts that omit "users".
	Users      int            `json:"users"`
	Flavors    FlavorsSpec    `json:"flavors"`
	Arrival    ArrivalBlock   `json:"arrival"`
	Batch      BatchSpec      `json:"batch"`
	Population PopulationSpec `json:"population"`
	Lifetime   LifetimeSpec   `json:"lifetime"`
	Cohorts    []CohortSpec   `json:"cohorts,omitempty"`
}

// FlavorsSpec names the flavor catalog: either a built-in one
// ("azure16", "huawei259") or an explicit definition list.
type FlavorsSpec struct {
	Catalog string          `json:"catalog,omitempty"`
	Defs    []FlavorDefSpec `json:"defs,omitempty"`
}

// FlavorDefSpec is one custom flavor definition.
type FlavorDefSpec struct {
	Name  string  `json:"name"`
	CPU   float64 `json:"cpu"`
	MemGB float64 `json:"mem_gb"`
}

// ArrivalBlock is the scenario-wide arrival schedule: the aggregate
// base rate and the diurnal/weekly/day-effect/trend shape every cohort
// shares (cohorts modulate it by rate fraction and arrival process).
type ArrivalBlock struct {
	// BaseRate is the mean batch arrivals per 5-minute period at
	// reference conditions, summed across cohorts.
	BaseRate         float64       `json:"base_rate"`
	DiurnalAmplitude float64       `json:"diurnal_amplitude"`
	WeekendDip       float64       `json:"weekend_dip"`
	DayEffectSigma   float64       `json:"day_effect_sigma"`
	Growth           *ScheduleSpec `json:"growth,omitempty"`
}

// ScheduleSpec is a declarative day-indexed schedule: the workload
// grammar's form of synth.Config's Growth/LifeShift functions. Day
// index is normalized to x = day/days.
type ScheduleSpec struct {
	// Kind selects the curve: "logistic" (growth that levels off,
	// base + amplitude/(1+exp(-steepness*(x-midpoint)))) or
	// "linear-decay" (scale * max(0, 1-x/until), the Huawei lifetime
	// regime change).
	Kind      string  `json:"kind"`
	Base      float64 `json:"base,omitempty"`
	Amplitude float64 `json:"amplitude,omitempty"`
	Steepness float64 `json:"steepness,omitempty"`
	Midpoint  float64 `json:"midpoint,omitempty"`
	Scale     float64 `json:"scale,omitempty"`
	Until     float64 `json:"until,omitempty"`
}

// BatchSpec is the within-batch structure block.
type BatchSpec struct {
	SizeMean        float64 `json:"size_mean"`
	RepeatFlavorP   float64 `json:"repeat_flavor_p"`
	RepeatLifetimeP float64 `json:"repeat_lifetime_p"`
	TemplateP       float64 `json:"template_p"`
}

// PopulationSpec is the user-population block.
type PopulationSpec struct {
	Zipf          float64 `json:"zipf"`
	FavoriteCount int     `json:"favorite_count"`
	Persistence   float64 `json:"persistence"`
}

// LifetimeSpec is the lifetime-distribution block. Bounds are plain
// seconds in the JSON; the compiler moves them to log space.
type LifetimeSpec struct {
	MuMinSeconds float64       `json:"mu_min_s"`
	MuMaxSeconds float64       `json:"mu_max_s"`
	Sigma        float64       `json:"sigma"`
	FlavorEffect float64       `json:"flavor_effect"`
	Shift        *ScheduleSpec `json:"shift,omitempty"`
}

// LifetimeOverride is a cohort's lifetime block: same fields as the
// base minus the scenario-global flavor effect and shift schedule.
type LifetimeOverride struct {
	MuMinSeconds float64 `json:"mu_min_s"`
	MuMaxSeconds float64 `json:"mu_max_s"`
	Sigma        float64 `json:"sigma"`
}

// ArrivalProcessSpec names a cohort's arrival process. CV is the
// burstiness knob: for "gamma" it is the coefficient of variation of
// the doubly-stochastic rate multiplier; for "weibull" the CV of the
// interarrival times (shape is solved from it). "poisson" takes no CV.
type ArrivalProcessSpec struct {
	Process string  `json:"process"`
	CV      float64 `json:"cv,omitempty"`
}

// CohortSpec is one client cohort. Nil override blocks inherit the
// spec-level base blocks wholesale; a non-nil block replaces its base
// block entirely (no per-field merging, so a spec reads unambiguously).
type CohortSpec struct {
	Name         string  `json:"name"`
	RateFraction float64 `json:"rate_fraction"`
	// Users sizes the cohort population; 0 lets the compiler split the
	// spec-level Users pool proportionally to RateFraction.
	Users      int                `json:"users,omitempty"`
	SLOClass   string             `json:"slo_class,omitempty"`
	Arrival    ArrivalProcessSpec `json:"arrival_process"`
	Batch      *BatchSpec         `json:"batch,omitempty"`
	Population *PopulationSpec    `json:"population,omitempty"`
	Lifetime   *LifetimeOverride  `json:"lifetime,omitempty"`
	// FlavorNames restricts the cohort's favorite flavors to the named
	// catalog entries; FlavorPrefix to every entry whose name has the
	// prefix. At most one may be set.
	FlavorNames  []string `json:"flavor_names,omitempty"`
	FlavorPrefix string   `json:"flavor_prefix,omitempty"`
}

// ParseSpec parses and validates a workload spec document. Parsing is
// strict: unknown fields, trailing garbage, oversized documents, and
// out-of-cap values are all errors. The returned spec is valid.
func ParseSpec(data []byte) (*Spec, error) {
	if len(data) > MaxSpecBytes {
		return nil, fmt.Errorf("workload: spec is %d bytes (cap %d)", len(data), MaxSpecBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	s := &Spec{}
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("workload: parse spec: %w", err)
	}
	// A second document (or trailing junk) after the spec is almost
	// certainly a mistake; reject it rather than silently ignoring it.
	if dec.More() {
		return nil, fmt.Errorf("workload: trailing data after spec document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Load resolves the scenario a command's -cloud flag names — the named
// preset, else the spec file at that path — and compiles it. The file
// is read through a LimitReader, so an oversized one fails on the
// MaxSpecBytes cap without being read whole.
func Load(arg string) (*Spec, synth.Config, error) {
	spec := Preset(arg)
	if spec == nil {
		f, err := os.Open(arg)
		if err != nil {
			return nil, synth.Config{}, fmt.Errorf("workload: spec %q is neither a preset %v nor a readable file: %w", arg, PresetNames(), err)
		}
		defer f.Close()
		data, err := io.ReadAll(io.LimitReader(f, MaxSpecBytes+1))
		if err != nil {
			return nil, synth.Config{}, fmt.Errorf("workload: read spec %s: %w", arg, err)
		}
		if spec, err = ParseSpec(data); err != nil {
			return nil, synth.Config{}, err
		}
	}
	cfg, err := spec.Compile()
	return spec, cfg, err
}

// Marshal serializes the spec as indented JSON (the golden-file and
// example format).
func (s *Spec) Marshal() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

func checkProb(field string, v float64) error {
	if v < 0 || v > 1 || v != v {
		return fmt.Errorf("workload: %s must be in [0,1], got %v", field, v)
	}
	return nil
}

func checkName(field, v string) error {
	if v == "" {
		return fmt.Errorf("workload: %s must be non-empty", field)
	}
	if len(v) > maxNameLen {
		return fmt.Errorf("workload: %s is %d chars (cap %d)", field, len(v), maxNameLen)
	}
	return nil
}

// Validate checks the whole grammar: versions, caps, probability
// ranges, schedule kinds, cohort fraction sums, and flavor references.
func (s *Spec) Validate() error {
	if s.Version != SpecVersion {
		return fmt.Errorf("workload: unsupported spec version %d (want %d)", s.Version, SpecVersion)
	}
	if err := checkName("name", s.Name); err != nil {
		return err
	}
	if s.Days < 1 || s.Days > maxDays {
		return fmt.Errorf("workload: days %d outside [1,%d]", s.Days, maxDays)
	}
	if s.Users < 1 || s.Users > maxUsers {
		return fmt.Errorf("workload: users %d outside [1,%d]", s.Users, maxUsers)
	}
	if err := s.Flavors.validate(); err != nil {
		return err
	}
	if err := s.Arrival.validate(); err != nil {
		return err
	}
	if err := s.Batch.validate("batch"); err != nil {
		return err
	}
	if err := s.Population.validate("population"); err != nil {
		return err
	}
	if err := s.Lifetime.validate(); err != nil {
		return err
	}
	if len(s.Cohorts) > maxCohorts {
		return fmt.Errorf("workload: %d cohorts (cap %d)", len(s.Cohorts), maxCohorts)
	}
	names := map[string]bool{}
	var frac float64
	for i := range s.Cohorts {
		co := &s.Cohorts[i]
		if err := co.validate(fmt.Sprintf("cohorts[%d]", i), s); err != nil {
			return err
		}
		if names[co.Name] {
			return fmt.Errorf("workload: duplicate cohort name %q", co.Name)
		}
		names[co.Name] = true
		frac += co.RateFraction
	}
	if len(s.Cohorts) > 0 && math.Abs(frac-1) > 1e-6 {
		return fmt.Errorf("workload: cohort rate fractions sum to %v, want 1", frac)
	}
	return nil
}

func (f *FlavorsSpec) validate() error {
	switch {
	case f.Catalog != "" && len(f.Defs) > 0:
		return fmt.Errorf("workload: flavors sets both catalog and defs")
	case f.Catalog != "":
		if f.Catalog != "azure16" && f.Catalog != "huawei259" {
			return fmt.Errorf("workload: unknown flavor catalog %q (have azure16, huawei259)", f.Catalog)
		}
	case len(f.Defs) == 0:
		return fmt.Errorf("workload: flavors needs a catalog name or defs")
	default:
		if len(f.Defs) > maxFlavors {
			return fmt.Errorf("workload: %d flavor defs (cap %d)", len(f.Defs), maxFlavors)
		}
		seen := map[string]bool{}
		for i, d := range f.Defs {
			if err := checkName(fmt.Sprintf("flavors.defs[%d].name", i), d.Name); err != nil {
				return err
			}
			if seen[d.Name] {
				return fmt.Errorf("workload: duplicate flavor name %q", d.Name)
			}
			seen[d.Name] = true
			if !(d.CPU > 0 && d.CPU <= 1024) {
				return fmt.Errorf("workload: flavor %q cpu %v outside (0,1024]", d.Name, d.CPU)
			}
			if !(d.MemGB > 0 && d.MemGB <= 65536) {
				return fmt.Errorf("workload: flavor %q mem_gb %v outside (0,65536]", d.Name, d.MemGB)
			}
		}
	}
	return nil
}

func (a *ArrivalBlock) validate() error {
	if !(a.BaseRate > 0 && a.BaseRate <= maxBaseRate) {
		return fmt.Errorf("workload: arrival.base_rate %v outside (0,%g]", a.BaseRate, float64(maxBaseRate))
	}
	if a.DiurnalAmplitude < 0 || a.DiurnalAmplitude >= 1 {
		return fmt.Errorf("workload: arrival.diurnal_amplitude %v outside [0,1)", a.DiurnalAmplitude)
	}
	if !(a.WeekendDip > 0 && a.WeekendDip <= 1) {
		return fmt.Errorf("workload: arrival.weekend_dip %v outside (0,1]", a.WeekendDip)
	}
	if a.DayEffectSigma < 0 || a.DayEffectSigma > 5 {
		return fmt.Errorf("workload: arrival.day_effect_sigma %v outside [0,5]", a.DayEffectSigma)
	}
	if a.Growth != nil {
		if err := a.Growth.validate("arrival.growth", "logistic"); err != nil {
			return err
		}
	}
	return nil
}

// validate checks a schedule block; allowed lists the kinds legal in
// this position.
func (sc *ScheduleSpec) validate(field string, allowed ...string) error {
	ok := false
	for _, k := range allowed {
		if sc.Kind == k {
			ok = true
		}
	}
	if !ok {
		return fmt.Errorf("workload: %s.kind %q not in %v", field, sc.Kind, allowed)
	}
	switch sc.Kind {
	case "logistic":
		if !(sc.Base >= 0 && sc.Base <= 100) || !(sc.Amplitude >= 0 && sc.Amplitude <= 100) {
			return fmt.Errorf("workload: %s base/amplitude outside [0,100]", field)
		}
		if sc.Base+sc.Amplitude <= 0 {
			return fmt.Errorf("workload: %s is identically zero", field)
		}
		if !(sc.Steepness > 0 && sc.Steepness <= 1000) {
			return fmt.Errorf("workload: %s.steepness %v outside (0,1000]", field, sc.Steepness)
		}
		if sc.Midpoint < 0 || sc.Midpoint > 1 {
			return fmt.Errorf("workload: %s.midpoint %v outside [0,1]", field, sc.Midpoint)
		}
	case "linear-decay":
		if !(sc.Scale >= -20 && sc.Scale <= 20) || sc.Scale != sc.Scale {
			return fmt.Errorf("workload: %s.scale %v outside [-20,20]", field, sc.Scale)
		}
		if !(sc.Until > 0 && sc.Until <= 1) {
			return fmt.Errorf("workload: %s.until %v outside (0,1]", field, sc.Until)
		}
	}
	return nil
}

func (b *BatchSpec) validate(field string) error {
	if !(b.SizeMean >= 1 && b.SizeMean <= 1000) {
		return fmt.Errorf("workload: %s.size_mean %v outside [1,1000]", field, b.SizeMean)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{field + ".repeat_flavor_p", b.RepeatFlavorP},
		{field + ".repeat_lifetime_p", b.RepeatLifetimeP},
		{field + ".template_p", b.TemplateP},
	} {
		if err := checkProb(p.name, p.v); err != nil {
			return err
		}
	}
	return nil
}

func (p *PopulationSpec) validate(field string) error {
	if !(p.Zipf >= 0 && p.Zipf <= 10) {
		return fmt.Errorf("workload: %s.zipf %v outside [0,10]", field, p.Zipf)
	}
	if p.FavoriteCount < 1 || p.FavoriteCount > 64 {
		return fmt.Errorf("workload: %s.favorite_count %d outside [1,64]", field, p.FavoriteCount)
	}
	return checkProb(field+".persistence", p.Persistence)
}

func (l *LifetimeSpec) validate() error {
	if err := checkLifetimeBounds("lifetime", l.MuMinSeconds, l.MuMaxSeconds, l.Sigma); err != nil {
		return err
	}
	if l.FlavorEffect < 0 || l.FlavorEffect > 10 {
		return fmt.Errorf("workload: lifetime.flavor_effect %v outside [0,10]", l.FlavorEffect)
	}
	if l.Shift != nil {
		if err := l.Shift.validate("lifetime.shift", "linear-decay"); err != nil {
			return err
		}
	}
	return nil
}

func checkLifetimeBounds(field string, muMin, muMax, sigma float64) error {
	if !(muMin >= 1 && muMin <= 1e10) {
		return fmt.Errorf("workload: %s.mu_min_s %v outside [1,1e10]", field, muMin)
	}
	if !(muMax >= muMin && muMax <= 1e10) {
		return fmt.Errorf("workload: %s.mu_max_s %v outside [mu_min_s,1e10]", field, muMax)
	}
	if !(sigma > 0 && sigma <= 10) {
		return fmt.Errorf("workload: %s.sigma %v outside (0,10]", field, sigma)
	}
	return nil
}

func (a *ArrivalProcessSpec) validate(field string) error {
	switch a.Process {
	case "poisson":
		if a.CV != 0 {
			return fmt.Errorf("workload: %s: poisson takes no cv", field)
		}
	case "gamma", "weibull":
		if !(a.CV >= minCV && a.CV <= maxCV) {
			return fmt.Errorf("workload: %s.cv %v outside [%g,%g]", field, a.CV, float64(minCV), float64(maxCV))
		}
	default:
		return fmt.Errorf("workload: %s.process %q not in [poisson gamma weibull]", field, a.Process)
	}
	return nil
}

func (co *CohortSpec) validate(field string, s *Spec) error {
	if err := checkName(field+".name", co.Name); err != nil {
		return err
	}
	if !(co.RateFraction > 0 && co.RateFraction <= 1) {
		return fmt.Errorf("workload: %s.rate_fraction %v outside (0,1]", field, co.RateFraction)
	}
	if co.Users < 0 || co.Users > maxUsers {
		return fmt.Errorf("workload: %s.users %d outside [0,%d]", field, co.Users, maxUsers)
	}
	if len(co.SLOClass) > maxNameLen {
		return fmt.Errorf("workload: %s.slo_class too long", field)
	}
	if err := co.Arrival.validate(field + ".arrival_process"); err != nil {
		return err
	}
	if co.Batch != nil {
		if err := co.Batch.validate(field + ".batch"); err != nil {
			return err
		}
	}
	if co.Population != nil {
		if err := co.Population.validate(field + ".population"); err != nil {
			return err
		}
	}
	if co.Lifetime != nil {
		if err := checkLifetimeBounds(field+".lifetime", co.Lifetime.MuMinSeconds, co.Lifetime.MuMaxSeconds, co.Lifetime.Sigma); err != nil {
			return err
		}
	}
	if len(co.FlavorNames) > 0 && co.FlavorPrefix != "" {
		return fmt.Errorf("workload: %s sets both flavor_names and flavor_prefix", field)
	}
	if len(co.FlavorNames) > maxFlavors {
		return fmt.Errorf("workload: %s.flavor_names has %d entries (cap %d)", field, len(co.FlavorNames), maxFlavors)
	}
	// Flavor references are resolved (and therefore existence-checked)
	// at compile time against the actual catalog; here we only check
	// the strings themselves.
	for i, n := range co.FlavorNames {
		if err := checkName(fmt.Sprintf("%s.flavor_names[%d]", field, i), n); err != nil {
			return err
		}
	}
	if len(co.FlavorPrefix) > maxNameLen {
		return fmt.Errorf("workload: %s.flavor_prefix too long", field)
	}
	return nil
}

// Summary returns the compact spec description cmd/traced echoes on
// GET /metrics: enough to identify the scenario without re-serving the
// whole document.
func (s *Spec) Summary() map[string]any {
	out := map[string]any{
		"version": s.Version,
		"name":    s.Name,
		"days":    s.Days,
		"users":   s.Users,
	}
	if s.Flavors.Catalog != "" {
		out["catalog"] = s.Flavors.Catalog
	} else {
		out["catalog"] = fmt.Sprintf("custom(%d)", len(s.Flavors.Defs))
	}
	out["base_rate"] = s.Arrival.BaseRate
	if len(s.Cohorts) > 0 {
		cohorts := make([]map[string]any, len(s.Cohorts))
		for i, co := range s.Cohorts {
			c := map[string]any{
				"name":          co.Name,
				"rate_fraction": co.RateFraction,
				"process":       co.Arrival.Process,
			}
			if co.Arrival.CV != 0 {
				c["cv"] = co.Arrival.CV
			}
			if co.SLOClass != "" {
				c["slo_class"] = co.SLOClass
			}
			cohorts[i] = c
		}
		out["cohorts"] = cohorts
	}
	return out
}

// cohortFlavorSubset resolves a cohort's flavor restriction against a
// catalog's names, returning nil when unrestricted.
func cohortFlavorSubset(co *CohortSpec, names []string) ([]int, error) {
	if len(co.FlavorNames) == 0 && co.FlavorPrefix == "" {
		return nil, nil
	}
	index := make(map[string]int, len(names))
	for i, n := range names {
		index[n] = i
	}
	var subset []int
	if co.FlavorPrefix != "" {
		for i, n := range names {
			if strings.HasPrefix(n, co.FlavorPrefix) {
				subset = append(subset, i)
			}
		}
		if len(subset) == 0 {
			return nil, fmt.Errorf("workload: cohort %q flavor_prefix %q matches no flavors", co.Name, co.FlavorPrefix)
		}
		return subset, nil
	}
	seen := make(map[int]bool, len(co.FlavorNames))
	for _, n := range co.FlavorNames {
		i, ok := index[n]
		if !ok {
			return nil, fmt.Errorf("workload: cohort %q references unknown flavor %q", co.Name, n)
		}
		if seen[i] {
			return nil, fmt.Errorf("workload: cohort %q lists flavor %q twice", co.Name, n)
		}
		seen[i] = true
		subset = append(subset, i)
	}
	return subset, nil
}
