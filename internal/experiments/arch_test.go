package experiments

import "testing"

// TestArchitectureAblation checks the §7 architecture swap: a causal
// Transformer trained on the same flavor stream is a working drop-in —
// clearly better than the order-free multinomial — with the (dev-tuned)
// LSTM remaining the reference.
func TestArchitectureAblation(t *testing.T) {
	get := byName(azureResults(t).Arch, func(r ArchRow) string { return r.Arch })
	multi, lstm, gru, tf := get["Multinomial"], get["LSTM"], get["GRU"], get["Transformer"]
	if !(tf.NLL < multi.NLL) {
		t.Errorf("transformer NLL %v should beat multinomial %v", tf.NLL, multi.NLL)
	}
	if !(tf.OneBestErr < multi.OneBestErr) {
		t.Errorf("transformer 1-best %v should beat multinomial %v", tf.OneBestErr, multi.OneBestErr)
	}
	if !(gru.NLL < multi.NLL) {
		t.Errorf("GRU NLL %v should beat multinomial %v", gru.NLL, multi.NLL)
	}
	if lstm.NLL > tf.NLL+0.1 {
		t.Errorf("tuned LSTM NLL %v should not trail the untuned transformer %v badly", lstm.NLL, tf.NLL)
	}
	if lstm.NLL > gru.NLL+0.25 {
		t.Errorf("LSTM NLL %v should be in the GRU's ballpark %v", lstm.NLL, gru.NLL)
	}
}

// TestPMFvsHazard checks the §2.3.1 head comparison: both neural heads
// beat KM, and the hazard head (the paper's choice) does not trail the
// PMF head meaningfully.
func TestPMFvsHazard(t *testing.T) {
	get := byName(azureResults(t).Heads, func(r HeadRow) string { return r.Head })
	km, hz, pmf := get["Overall KM"], get["LSTM (hazard head)"], get["LSTM (PMF head)"]
	if !(hz.BCE < km.BCE) || !(pmf.BCE < km.BCE) {
		t.Errorf("both heads should beat KM: hazard %v pmf %v km %v", hz.BCE, pmf.BCE, km.BCE)
	}
	if hz.BCE > pmf.BCE*1.15 {
		t.Errorf("hazard head %v should not trail PMF head %v (paper: slightly better)", hz.BCE, pmf.BCE)
	}
}
