package main

import (
	"math"
	"time"
)

// The host reference probe. It is the benchmark's yardstick for how
// fast this machine is running right now, so that a run on a busy or
// throttled host can be compared with a run on a quiet one.
//
// FROZEN: nothing in this file is ever edited, the REF constants
// included. The probe calls no repository code, so no change to the
// repository can move it; an edit here changes every host-corrected
// number and is a re-baseline of the whole benchmark (bump
// hostrefVersion and measure the baseline again).
//
// The two halves were chosen by measurement on the 2-vCPU reference
// sandbox (README.md, "Host correction"): its slow-downs come in bursts
// and modes of up to 2x that hit throughput-bound and cache-missing code
// but barely touch a serial dependency chain, so the probe is made of
// the first two kinds — a multi-accumulator float matrix-vector product
// with a logistic, which lives in L1 like the decode kernels, and a
// dependent pointer chase over 1 MiB, which lives in L2 like the
// training windows and the allocator.

const hostrefVersion = 1

const (
	probeRows, probeCols = 96, 120 // the matrix of the compute half
	probeComputeIters    = 400
	probeRingWords       = 1 << 18 // 1 MiB of uint32
	probeChaseSteps      = 400_000

	// Nominal probe times on the reference sandbox: the medians of 1454
	// probes taken over ten minutes of mixed host weather. Host factor
	// 1.0 means "as fast as that".
	refComputeNS = 4_592_000
	refMemNS     = 5_317_000

	// probeChecksum pins the probe's arithmetic (hostref_test.go).
	probeChecksum = 0x4068c0f5b2966eac
)

// hostProbe owns the probe's working set. One per process.
type hostProbe struct {
	w    []float64
	x, y []float64
	ring []uint32
	at   uint32
}

func newHostProbe() *hostProbe {
	p := &hostProbe{
		w:    make([]float64, probeRows*probeCols),
		x:    make([]float64, probeCols),
		y:    make([]float64, probeRows),
		ring: make([]uint32, probeRingWords),
	}
	for i := range p.w {
		p.w[i] = float64(i%17)*0.01 - 0.08
	}
	// One cycle through every word, in an order fixed by a xorshift
	// stream (Sattolo's shuffle), so that each load depends on the last
	// and the hardware prefetcher cannot follow.
	perm := make([]uint32, probeRingWords)
	for i := range perm {
		perm[i] = uint32(i)
	}
	s := uint64(0x2545F4914F6CDD1D)
	for i := len(perm) - 1; i > 0; i-- {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		j := int(s % uint64(i))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := range perm {
		p.ring[perm[i]] = perm[(i+1)%len(perm)]
	}
	return p
}

// compute is the throughput-bound half: 400 products of a 96x120 matrix
// with a vector, four accumulators wide, each output through a logistic.
func (p *hostProbe) compute() float64 {
	var s float64
	for it := 0; it < probeComputeIters; it++ {
		for j := 0; j < probeRows; j++ {
			var a0, a1, a2, a3 float64
			row := p.w[j*probeCols : (j+1)*probeCols]
			for i := 0; i+3 < probeCols; i += 4 {
				a0 += row[i] * p.x[i]
				a1 += row[i+1] * p.x[i+1]
				a2 += row[i+2] * p.x[i+2]
				a3 += row[i+3] * p.x[i+3]
			}
			p.y[j] = 1 / (1 + math.Exp(-(a0 + a1 + a2 + a3)))
		}
		for i := range p.x {
			p.x[i] = p.y[i%probeRows]*0.5 + 0.1
		}
		s += p.y[0]
	}
	return s
}

// mem is the latency-bound half: 400 000 dependent loads around the
// 1 MiB ring.
func (p *hostProbe) mem() uint32 {
	i := p.at
	for k := 0; k < probeChaseSteps; k++ {
		i = p.ring[i]
	}
	p.at = i
	return i
}

// probeSample is one timing of both probe halves.
type probeSample struct {
	computeNS, memNS int64
	sum              uint64
}

func (p *hostProbe) sample() probeSample {
	t0 := time.Now()
	c := p.compute()
	t1 := time.Now()
	m := p.mem()
	t2 := time.Now()
	return probeSample{
		computeNS: t1.Sub(t0).Nanoseconds(),
		memNS:     t2.Sub(t1).Nanoseconds(),
		sum:       math.Float64bits(c) ^ uint64(m),
	}
}

// hostFactor is the slowdown relative to the reference host: 1.0 on the
// reference, 1.2 when this host is running 20% slower. Both halves
// weigh the same.
func hostFactor(computeNS, memNS float64) float64 {
	return 0.5*computeNS/refComputeNS + 0.5*memNS/refMemNS
}
