package main

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/survival"
)

// train_fit repeats one cycle for ever: a fresh, seed-initialised fit
// of the flavor LSTM for trainFlavorEpochs, then of the lifetime LSTM
// for trainLifetimeEpochs. An op is one epoch, a slice is two. Every
// cycle is exactly the same computation, so the work is fixed and the
// final losses must be bit-identical from cycle to cycle. The 3:1 mix
// keeps both the median and the tail percentile inside the flavor
// epochs' population instead of on the boundary between the two.
//
// The training calls cannot be suspended from outside, so they run on
// their own goroutine and park in the Progress callback at every epoch
// boundary until the harness asks for the next epoch. That hands the
// harness a quiescent point between any two epochs to probe the host.
const (
	trainFlavorEpochs   = 3
	trainLifetimeEpochs = 1
	trainSliceEpochs    = 2
)

type epochDone struct {
	span string
	loss float64
	last bool // final epoch of its training call
}

type trainFit struct {
	seed   int64
	traced bool
	fx     *fixture
	nextOp int

	next    chan struct{}  // harness -> trainer: run one more epoch
	done    chan epochDone // trainer -> harness: epoch finished
	stopped chan struct{}  // closed when the trainer goroutine has exited
	quit    bool           // set before the last send on next: finish the current call without parking

	// Final training losses of every completed call, as bits.
	flavorLoss, lifetimeLoss []uint64
	// Per-epoch events of traced slices.
	events []obs.EpochEvent
}

func newTrainFit(seed int64, traced, _ bool) *trainFit {
	return &trainFit{
		seed: seed, traced: traced,
		next: make(chan struct{}), done: make(chan epochDone), stopped: make(chan struct{}),
	}
}

// prepare starts the trainer, parked before its first epoch. The
// fixture's own fit on the same history has been the warm-up.
func (w *trainFit) prepare(fx *fixture, _ *spanLog) error {
	w.fx = fx
	go w.trainer()
	return nil
}

// trainer runs cycles until told to quit. Only it touches quit after
// the harness set it, and only between receives on next, so the channel
// orders the accesses.
func (w *trainFit) trainer() {
	defer close(w.stopped)
	<-w.next
	for !w.quit {
		w.call("core.TrainFlavor.epoch", trainFlavorEpochs, func(cfg core.TrainConfig) {
			core.TrainFlavor(w.fx.history, cfg)
		})
		if w.quit {
			return
		}
		w.call("core.TrainLifetime.epoch", trainLifetimeEpochs, func(cfg core.TrainConfig) {
			core.TrainLifetime(w.fx.history, survival.PaperBins(), cfg)
		})
	}
}

// call runs one training call, reporting and parking at each epoch end.
func (w *trainFit) call(span string, epochs int, train func(core.TrainConfig)) {
	cfg := core.TrainConfig{
		Hidden: fixtureHidden, Layers: fixtureLayers, Epochs: epochs, Seed: w.seed,
		Progress: func(epoch int, loss float64) {
			if w.quit {
				return
			}
			w.done <- epochDone{span: span, loss: loss, last: epoch == epochs-1}
			<-w.next
		},
	}
	if w.traced {
		cfg.Obs = obs.SinkFunc(func(e obs.EpochEvent) { w.events = append(w.events, e) })
	}
	train(cfg)
}

// slice runs trainSliceEpochs epochs. The first epoch of a call carries
// that call's preparation (tokenising the history, initialising the
// net).
func (w *trainFit) slice(_ int, sl *spanLog, res *sliceResult) {
	for i := 0; i < trainSliceEpochs; i++ {
		w.epoch(sl, res)
	}
}

func (w *trainFit) epoch(sl *spanLog, res *sliceResult) {
	t0 := time.Now()
	w.next <- struct{}{}
	e := <-w.done
	t1 := time.Now()
	res.ops = append(res.ops, opStat{latNS: t1.Sub(t0).Nanoseconds(), class: noClass, ok: !math.IsNaN(e.loss)})
	sl.add(e.span, t0, t1, -1, w.nextOp)
	w.nextOp++
	if e.last {
		if e.span == "core.TrainFlavor.epoch" {
			w.flavorLoss = append(w.flavorLoss, math.Float64bits(e.loss))
		} else {
			w.lifetimeLoss = append(w.lifetimeLoss, math.Float64bits(e.loss))
		}
	}
}

func (w *trainFit) finish(*spanLog) {}

func (w *trainFit) traceData() traceData { return traceData{epochs: w.events} }

// verify: every flavor fit must end below the uniform NLL over the 17
// tokens (16 flavors + end-of-batch), and every cycle must have
// reproduced the first cycle's losses exactly.
func (w *trainFit) verify() (checked, mismatched int, digest uint64) {
	uniform := math.Log(float64(w.fx.cfg.Flavors.K() + 1))
	for _, l := range w.flavorLoss {
		checked++
		if !(math.Float64frombits(l) < uniform) || l != w.flavorLoss[0] {
			mismatched++
		}
	}
	for _, l := range w.lifetimeLoss {
		checked++
		if l != w.lifetimeLoss[0] {
			mismatched++
		}
	}
	if len(w.flavorLoss) > 0 {
		digest = w.flavorLoss[0]
	}
	if len(w.lifetimeLoss) > 0 {
		digest ^= w.lifetimeLoss[0] << 1
	}
	return checked, mismatched, digest
}

// close lets the trainer finish the call it is parked in without
// further parking, and waits for it to exit.
func (w *trainFit) close() {
	w.quit = true
	close(w.next)
	<-w.stopped
}
