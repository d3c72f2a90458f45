// Package trace defines the workload data model shared by the whole
// repository: VMs with flavors, users, period-quantized start times and
// possibly-censored lifetimes; batch grouping (user × period, arrival
// ordered, §2 of the paper); observation windows with Figure-3 censoring
// semantics; and CSV (de)serialization.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// PeriodSeconds is the trace time quantum: all start/end times are
// quantized to 5-minute periods, as in the Azure V1 data (§3.1).
const PeriodSeconds = 300

// PeriodsPerHour is the number of periods in one hour.
const PeriodsPerHour = 3600 / PeriodSeconds

// PeriodsPerDay is the number of periods in one day.
const PeriodsPerDay = 86400 / PeriodSeconds

// FlavorDef is one VM flavor: a named CPU/memory bundle.
type FlavorDef struct {
	Name  string
	CPU   float64 // virtual cores
	MemGB float64
}

// FlavorSet is the catalog of flavors for a cloud.
type FlavorSet struct {
	Defs []FlavorDef
}

// K returns the number of flavors.
func (fs *FlavorSet) K() int { return len(fs.Defs) }

// VM is a single virtual machine demand record.
type VM struct {
	ID       int
	User     int
	Flavor   int     // index into the trace's FlavorSet
	Start    int     // start period index
	Duration float64 // lifetime in seconds; if Censored, observed runtime so far
	Censored bool
}

// EndSeconds returns the VM's end time in seconds from the trace origin
// (start-of-period + duration). For censored VMs this is the censoring
// time.
func (v VM) EndSeconds() float64 {
	return float64(v.Start)*PeriodSeconds + v.Duration
}

// Trace is an ordered collection of VMs over [0, Periods) periods.
// VMs are sorted by start period; within a period the slice order is the
// arrival (generative) order, with each user's batch contiguous.
type Trace struct {
	Flavors *FlavorSet
	Periods int
	VMs     []VM
}

// HourOfDay returns the 0-based hour-of-day of period p.
func HourOfDay(p int) int { return (p / PeriodsPerHour) % 24 }

// DayOfWeek returns the 0-based day-of-week of period p.
func DayOfWeek(p int) int { return (p / PeriodsPerDay) % 7 }

// DayOfHistory returns the 0-based day index of period p.
func DayOfHistory(p int) int { return p / PeriodsPerDay }

// Days returns the window length in (fractional) days.
func (t *Trace) Days() float64 { return float64(t.Periods) / float64(PeriodsPerDay) }

// Batch is the set of VMs submitted by one user within one period,
// in arrival order. Indices refer to Trace.VMs.
type Batch struct {
	User    int
	Indices []int
}

// PeriodBatches groups the trace's VMs into per-period, arrival-ordered
// batches. A batch is a maximal run of same-user VMs within one period
// (§2: jobs from the same user within the same period, contiguous in
// generative order).
func (t *Trace) PeriodBatches() [][]Batch {
	out := make([][]Batch, t.Periods)
	var cur *Batch
	curPeriod := -1
	for i, vm := range t.VMs {
		if vm.Start < 0 || vm.Start >= t.Periods {
			panic(fmt.Sprintf("trace: VM %d starts at period %d outside [0,%d)", vm.ID, vm.Start, t.Periods))
		}
		if vm.Start != curPeriod || cur == nil || cur.User != vm.User {
			curPeriod = vm.Start
			out[curPeriod] = append(out[curPeriod], Batch{User: vm.User})
			cur = &out[curPeriod][len(out[curPeriod])-1]
		}
		cur.Indices = append(cur.Indices, i)
	}
	return out
}

// BatchCounts returns the number of batches in each period.
func (t *Trace) BatchCounts() []int {
	pb := t.PeriodBatches()
	out := make([]int, len(pb))
	for p, batches := range pb {
		out[p] = len(batches)
	}
	return out
}

// ArrivalCounts returns the number of individual VM arrivals per period.
func (t *Trace) ArrivalCounts() []int {
	out := make([]int, t.Periods)
	for _, vm := range t.VMs {
		out[vm.Start]++
	}
	return out
}

// Window is a half-open period interval [Start, End).
type Window struct {
	Start, End int
}

// Periods returns the window length in periods.
func (w Window) Periods() int { return w.End - w.Start }

// Days returns the window length in fractional days.
func (w Window) Days() float64 { return float64(w.Periods()) / float64(PeriodsPerDay) }

// Slice extracts the sub-trace of VMs that *start* within w, re-based so
// the window start becomes period 0, and right-censors any VM still
// running at the end of the window (Figure 3). VMs already running at
// the window start are excluded by construction (they started earlier),
// avoiding survivorship bias as in §3.1. extraSeconds extends the
// censoring horizon beyond the window end (the Huawei test-window
// procedure of §3.2, which keeps monitoring for two months); pass 0 for
// the plain Figure-3 behaviour.
func (t *Trace) Slice(w Window, extraSeconds float64) *Trace {
	if w.Start < 0 || w.End > t.Periods || w.Start >= w.End {
		panic(fmt.Sprintf("trace: bad window %+v for %d periods", w, t.Periods))
	}
	horizon := float64(w.End)*PeriodSeconds + extraSeconds
	out := &Trace{Flavors: t.Flavors, Periods: w.Periods()}
	for _, vm := range t.VMs {
		if vm.Start < w.Start || vm.Start >= w.End {
			continue
		}
		nv := vm
		nv.Start = vm.Start - w.Start
		end := vm.EndSeconds()
		if vm.Censored || end >= horizon {
			nv.Censored = true
			obs := horizon - float64(vm.Start)*PeriodSeconds
			if vm.Censored && vm.Duration < obs {
				obs = vm.Duration // source observation ended earlier
			}
			nv.Duration = obs
		}
		out.VMs = append(out.VMs, nv)
	}
	return out
}

// Stats summarizes a trace for Table 1.
type Stats struct {
	Days        float64
	VMs         int
	Censored    int
	Batches     int
	MeanBatch   float64
	TotalCPUhrs float64
}

// ComputeStats returns summary statistics for the trace.
func (t *Trace) ComputeStats() Stats {
	s := Stats{Days: t.Days(), VMs: len(t.VMs)}
	var jobs int
	for _, vm := range t.VMs {
		if vm.Censored {
			s.Censored++
		}
		s.TotalCPUhrs += t.Flavors.Defs[vm.Flavor].CPU * vm.Duration / 3600
		jobs++
	}
	for _, c := range t.BatchCounts() {
		s.Batches += c
	}
	if s.Batches > 0 {
		s.MeanBatch = float64(jobs) / float64(s.Batches)
	}
	return s
}

// SortVMs re-establishes the canonical ordering (by start period,
// preserving relative order within periods) and reassigns IDs.
func (t *Trace) SortVMs() {
	sort.SliceStable(t.VMs, func(i, j int) bool { return t.VMs[i].Start < t.VMs[j].Start })
	for i := range t.VMs {
		t.VMs[i].ID = i
	}
}

// Validate checks trace invariants: VM periods in range, flavors in
// range, finite non-negative durations.
func (t *Trace) Validate() error {
	for i, vm := range t.VMs {
		if vm.Start < 0 || vm.Start >= t.Periods {
			return fmt.Errorf("trace: VM %d period %d outside [0,%d)", i, vm.Start, t.Periods)
		}
		if vm.Flavor < 0 || vm.Flavor >= t.Flavors.K() {
			return fmt.Errorf("trace: VM %d flavor %d outside [0,%d)", i, vm.Flavor, t.Flavors.K())
		}
		if vm.Duration < 0 || math.IsNaN(vm.Duration) || math.IsInf(vm.Duration, 0) {
			return fmt.Errorf("trace: VM %d duration %v is negative or not finite", i, vm.Duration)
		}
		if i > 0 && t.VMs[i].Start < t.VMs[i-1].Start {
			return fmt.Errorf("trace: VMs out of order at %d", i)
		}
	}
	return nil
}

// ReadCSV parses a trace written by WriteCSV. The caller supplies the
// flavor catalog and window length, which the CSV does not carry; a
// window length of 0 ends the window with the last VM's start period.
func ReadCSV(r io.Reader, flavors *FlavorSet, periods int) (*Trace, error) {
	cr := csv.NewReader(r)
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: read csv: %w", err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("trace: empty csv")
	}
	t := &Trace{Flavors: flavors, Periods: periods}
	for i, rec := range recs[1:] {
		if len(rec) != 6 {
			return nil, fmt.Errorf("trace: row %d has %d fields", i, len(rec))
		}
		id, err1 := strconv.Atoi(rec[0])
		user, err2 := strconv.Atoi(rec[1])
		flavor, err3 := strconv.Atoi(rec[2])
		start, err4 := strconv.Atoi(rec[3])
		dur, err5 := strconv.ParseFloat(rec[4], 64)
		cens, err6 := strconv.ParseBool(rec[5])
		for _, e := range []error{err1, err2, err3, err4, err5, err6} {
			if e != nil {
				return nil, fmt.Errorf("trace: row %d: %w", i, e)
			}
		}
		t.VMs = append(t.VMs, VM{ID: id, User: user, Flavor: flavor, Start: start, Duration: dur, Censored: cens})
		if periods == 0 {
			t.Periods = max(t.Periods, start+1)
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
