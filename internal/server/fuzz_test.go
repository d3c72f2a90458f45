package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/obs"
)

var (
	fuzzOnce sync.Once
	fuzzH    http.Handler
)

// fuzzHandler shares one tiny trained server across fuzz executions,
// with the request caps turned way down so a "valid" fuzz input decodes
// a handful of periods instead of four weeks.
func fuzzHandler(t testing.TB) http.Handler {
	fuzzOnce.Do(func() {
		shared := testServer(t)
		s := NewWithRegistry(shared.currentModel(), shared.catalog, obs.NewRegistry())
		s.MaxPeriods = 8
		s.MaxScale = 4
		fuzzH = s.Handler()
	})
	return fuzzH
}

// FuzzGenerateRequest throws arbitrary bodies at POST /generate. The
// handler must answer every one — 200 for valid requests, 400 for
// malformed or out-of-cap ones — and never panic or hang in a decode
// loop. Seed corpus: testdata/fuzz/FuzzGenerateRequest plus the
// programmatic seeds below.
func FuzzGenerateRequest(f *testing.F) {
	seeds := []string{
		`{"periods": 4}`,
		`{"periods": 4, "seed": 9, "scale": 2, "format": "json"}`,
		`{"periods": 4, "start_period": 600, "format": "csv"}`,
		`{"periods": -1}`,
		`{"periods": 1e309}`,
		`{"periods": "many"}`,
		`{"periods": 4, "scale": -1}`,
		`{"periods": 4, "scale": 1e300}`,
		`{"periods": 4, "start_period": -3}`,
		`{"periods": 4, "format": "yaml"}`,
		`{"periods`,
		``,
		`[1,2,3]`,
		"\x00\x01\x02",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		h := fuzzHandler(t)
		req := httptest.NewRequest("POST", "/generate", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest:
		default:
			t.Fatalf("unexpected status %d for body %q: %s", rec.Code, body, rec.Body.String())
		}
	})
}
