package core

import (
	"time"

	"repro/internal/nn"
	"repro/internal/obs"
)

// Model names used in obs.EpochEvent, one per training loop, so journal
// consumers can compare runs across architectures (DESIGN.md §7).
const (
	ObsFlavorLSTM     = "flavor_lstm"
	ObsLifetimeHazard = "lifetime_hazard"
	ObsArrivalGLM     = "arrival_glm"
)

// epochClock tracks per-epoch wall time and emits the uniform telemetry
// for one training loop: the legacy Progress callback plus the
// structured obs sink. Telemetry is strictly observational — it reads
// loop state after the epoch's updates and never touches RNG streams,
// so enabling it cannot change trained weights (pinned by the root
// determinism test).
type epochClock struct {
	model    string
	progress func(epoch int, loss float64)
	sink     obs.EpochSink
	epochs   int
	start    time.Time
}

// newEpochClock starts the wall clock for the first epoch.
func newEpochClock(model string, cfg TrainConfig) *epochClock {
	return &epochClock{
		model:    model,
		progress: cfg.Progress,
		sink:     cfg.Obs,
		epochs:   cfg.Epochs,
		start:    time.Now(),
	}
}

// emit reports one finished epoch (steps == 0 epochs carry no loss and
// are skipped, matching the original Progress guard) and restarts the
// clock for the next epoch. opt may be nil for loops without an Adam
// optimizer; dev is the dev-set loss when it was evaluated this epoch.
func (ec *epochClock) emit(epoch int, meanLoss float64, steps int, opt *nn.Adam, dev float64, hasDev bool) {
	wall := time.Since(ec.start)
	ec.start = time.Now()
	if steps == 0 {
		return
	}
	if ec.progress != nil {
		ec.progress(epoch, meanLoss)
	}
	if ec.sink == nil {
		return
	}
	e := obs.EpochEvent{
		Model:  ec.model,
		Epoch:  epoch,
		Epochs: ec.epochs,
		Loss:   meanLoss,
		Dev:    dev,
		HasDev: hasDev,
		Steps:  steps,
		WallMS: float64(wall.Microseconds()) / 1000,
	}
	if opt != nil {
		e.LR = opt.LR
		e.GradNorm = opt.LastGradNorm()
	}
	ec.sink.EpochDone(e)
}
