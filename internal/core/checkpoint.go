package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"

	"repro/internal/ckpt"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/rng"
)

// CheckpointSpec enables crash-safe training checkpoints (DESIGN.md §8).
// When attached to a training config, every loop writes an atomic,
// checksummed checkpoint at epoch boundaries capturing the model
// weights, the Adam moment vectors and step counter, the epoch cursor,
// the dev-selection state, and the RNG stream state — everything needed
// for a resumed run to reach byte-identical final weights and traces.
// One spec (one directory) serves every fit: each writes under its own
// file prefix, so a full TrainModel run checkpoints its arrival,
// flavor, and lifetime stages side by side.
type CheckpointSpec struct {
	// Dir is the checkpoint directory; empty disables checkpointing.
	Dir string
	// Every saves a checkpoint after every Every-th epoch (default 1).
	// The final post-training checkpoint is always written.
	Every int
	// Keep bounds retained versions per prefix (ckpt.Store semantics:
	// 0 means 3, negative keeps all).
	Keep int
	// Resume, when set, loads the newest intact checkpoint before
	// training and continues from its epoch cursor. A checkpoint whose
	// fingerprint (architecture, hyperparameters, data shape) does not
	// match the current run is ignored and training starts fresh.
	Resume bool
	// Obs, if non-nil, receives checkpoint telemetry: bytes written,
	// save duration, sequence numbers and save timestamps (age).
	Obs *obs.Registry
}

// everyN resolves the save cadence.
func (s *CheckpointSpec) everyN() int {
	if s == nil || s.Every <= 0 {
		return 1
	}
	return s.Every
}

// trainCkptV1 is the gob payload inside a training checkpoint frame.
type trainCkptV1 struct {
	// Fingerprint binds the checkpoint to one training setup; resume
	// refuses a checkpoint from a different architecture, hyperparameter
	// set, or input data shape.
	Fingerprint string
	// EpochsDone is the epoch cursor: how many epochs completed.
	EpochsDone int
	// Done marks the final checkpoint written after best-snapshot
	// restore; resuming a Done checkpoint skips training entirely.
	Done bool
	// Net is the network snapshot (MarshalBinary wire format).
	Net []byte
	// Opt is the optimizer state (nn.MarshalOptState wire format);
	// empty for loops without optimizer state to carry.
	Opt []byte
	// BestDev / BestSnap carry the dev-selection state so a resumed run
	// restores the same best-scoring weights at the end.
	BestDev  float64
	BestSnap []byte
	// RNG is the weight-init RNG stream position at save time. It is
	// recorded, not restored: no loop draws from that stream after
	// weight init, so a resume has nothing to replay.
	RNG rng.State
}

// trainCheckpointer drives checkpoint saves and resume for one training
// loop. A nil *trainCheckpointer is valid and does nothing, so loops
// call its methods unconditionally.
type trainCheckpointer struct {
	store  ckpt.Store
	prefix string
	fp     string
	every  int

	saves    *obs.Counter
	errors   *obs.Counter
	bytesTot *obs.Counter
	saveDur  *obs.Histogram
	lastSeq  *obs.Gauge
	lastUnix *obs.Gauge
	resumes  *obs.Counter
	rejected *obs.Counter
}

// newTrainCheckpointer returns the checkpointer for one loop, or nil
// when spec is nil or has no directory.
func newTrainCheckpointer(spec *CheckpointSpec, prefix, fingerprint string) *trainCheckpointer {
	if spec == nil || spec.Dir == "" {
		return nil
	}
	t := &trainCheckpointer{
		store:  ckpt.Store{Dir: spec.Dir, Keep: spec.Keep},
		prefix: prefix,
		fp:     fingerprint,
		every:  spec.everyN(),
	}
	if r := spec.Obs; r != nil {
		t.saves = r.Counter("ckpt_saves_total")
		t.errors = r.Counter("ckpt_save_errors_total")
		t.bytesTot = r.Counter("ckpt_bytes_total")
		t.saveDur = r.Histogram("ckpt_save_seconds", obs.LatencyBuckets)
		t.lastSeq = r.Gauge("ckpt_last_seq")
		t.lastUnix = r.Gauge("ckpt_last_save_unix_ms")
		t.resumes = r.Counter("ckpt_resumes_total")
		t.rejected = r.Counter("ckpt_resume_rejected_total")
	}
	return t
}

// resume loads the newest intact checkpoint for this loop and restores
// the network weights and optimizer state in place. Returns the loaded
// payload and true on success; on any failure (nothing on disk, corrupt
// frames, fingerprint mismatch, undecodable state) training starts
// fresh. Restore order matters: the net is restored before the
// optimizer so moment shapes are matched against the restored params,
// and callers must resume before deriving sharded views from the net.
func (t *trainCheckpointer) resume(spec *CheckpointSpec, net *nn.LSTM, opt *nn.Adam) (trainCkptV1, bool) {
	var zero trainCkptV1
	if t == nil || spec == nil || !spec.Resume {
		return zero, false
	}
	payload, _, _, err := t.store.LoadLatest(t.prefix)
	if err != nil {
		return zero, false
	}
	var w trainCkptV1
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&w); err != nil {
		t.reject()
		return zero, false
	}
	if w.Fingerprint != t.fp || w.EpochsDone < 0 {
		t.reject()
		return zero, false
	}
	if err := net.UnmarshalBinary(w.Net); err != nil {
		t.reject()
		return zero, false
	}
	if opt != nil && len(w.Opt) > 0 {
		if err := nn.UnmarshalOptState(w.Opt, opt, net.Params()); err != nil {
			t.reject()
			return zero, false
		}
	}
	if t.resumes != nil {
		t.resumes.Inc()
	}
	return w, true
}

func (t *trainCheckpointer) reject() {
	if t != nil && t.rejected != nil {
		t.rejected.Inc()
	}
}

// save writes one checkpoint if the cadence (or done) calls for it.
// Failures are counted but do not abort training: a checkpointing
// problem must never take down a run that would otherwise finish.
func (t *trainCheckpointer) save(epochsDone int, done bool, net *nn.LSTM, opt *nn.Adam, bestDev float64, bestSnap []byte, g rng.State) {
	if t == nil {
		return
	}
	if !done && epochsDone%t.every != 0 {
		return
	}
	w := trainCkptV1{
		Fingerprint: t.fp,
		EpochsDone:  epochsDone,
		Done:        done,
		BestDev:     bestDev,
		BestSnap:    bestSnap,
		RNG:         g,
	}
	var err error
	if w.Net, err = net.MarshalBinary(); err != nil {
		t.countErr()
		return
	}
	if opt != nil {
		if w.Opt, err = nn.MarshalOptState(opt, net.Params()); err != nil {
			t.countErr()
			return
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.countErr()
		return
	}
	seq := epochsDone
	if done {
		// The final checkpoint sorts strictly after every boundary save.
		seq = epochsDone + 1
	}
	start := time.Now()
	if _, err := t.store.Save(t.prefix, seq, buf.Bytes()); err != nil {
		t.countErr()
		return
	}
	if t.saves != nil {
		t.saves.Inc()
		t.bytesTot.Add(int64(buf.Len()))
		t.saveDur.Observe(time.Since(start).Seconds())
		t.lastSeq.Set(int64(seq))
		t.lastUnix.Set(time.Now().UnixMilli())
	}
}

func (t *trainCheckpointer) countErr() {
	if t.errors != nil {
		t.errors.Inc()
	}
}

// fingerprint builds the resume-compatibility string for an SGD fit
// from everything that shapes the training trajectory: model name,
// hyperparameters, and input data shape.
func (c TrainConfig) fingerprint(model string, dataLen, k, historyDays int) string {
	return fmt.Sprintf("%s|h%d l%d s%d b%d e%d lr%g wd%g cn%g seed%d de%d do%d dev%t|n%d k%d hd%d",
		model, c.Hidden, c.Layers, c.SeqLen, c.BatchSize, c.Epochs, c.LR,
		c.WeightDecay, c.ClipNorm, c.Seed, c.DevEvery, c.DevOffset, c.Dev != nil,
		dataLen, k, historyDays)
}

// arrivalCkptV1 is the gob payload of a fitted-arrival checkpoint. The
// GLM fit is one-shot, so its checkpoint simply carries the fitted
// coefficients: resume skips the solver entirely.
type arrivalCkptV1 struct {
	Fingerprint string
	W           []float64
	Intercept   float64
}

// arrivalFingerprint binds an arrival checkpoint to the fit setup.
func arrivalFingerprint(o ArrivalOptions, nPeriods, historyDays int) string {
	return fmt.Sprintf("%s|k%d doh%t l2%g l1%g|n%d hd%d",
		ObsArrivalGLM, o.Kind, o.UseDOH, o.L2, o.L1, nPeriods, historyDays)
}
