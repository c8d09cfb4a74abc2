package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"asyncnoc/internal/core"
	"asyncnoc/internal/network"
	"asyncnoc/internal/packet"
	"asyncnoc/internal/sim"
)

// stubServer is a server whose engine hands every job to a stub remote
// runner, so requests exercise decoding, validation and the engine path
// without running a simulation. invalid returns (and clears) the
// validation error of the last spec that reached the stub, if any.
func stubServer() (h http.Handler, invalid func() error) {
	var mu sync.Mutex
	var bad error
	eng := core.NewEngine(1)
	eng.SetRemote(func(_ context.Context, spec network.Spec, cfg core.RunConfig) (core.RunResult, error) {
		if err := spec.Validate(); err != nil {
			mu.Lock()
			bad = err
			mu.Unlock()
		}
		return core.RunResult{Network: spec.Name, Benchmark: cfg.Bench.Name(), LoadGFs: cfg.LoadGFs}, nil
	})
	return NewServer(eng, nil).Handler(), func() error {
		mu.Lock()
		defer mu.Unlock()
		err := bad
		bad = nil
		return err
	}
}

// post sends one request body to a handler and returns the recorder.
func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// FuzzRunRequest sends arbitrary bodies to POST /v1/run. The handler
// must never panic; every answer is 200 or a 4xx ErrorResponse with a
// known kind; and every request answered 200 decodes to a spec and
// configuration that pass validation within the packet-length bound.
func FuzzRunRequest(f *testing.F) {
	for _, seed := range []uint64{1, 8, 9} {
		req := testRunRequest(f, seed)
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		req.Spec.PacketLen = packet.MaxLength + 1
		long, _ := json.Marshal(req)
		f.Add(long)
	}
	f.Add([]byte(`{"spec":{},"bench":"UniformRandom","surprise":1}`))
	f.Add([]byte(`{"spec":{"Name":"x","N":2,"PacketLen":5},"bench":"UniformRandom","load_gfs":0.1,"measure_ps":1000}`))
	f.Add([]byte(`null`))
	h, invalid := stubServer()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := post(h, "/v1/run", body)
		if err := invalid(); err != nil {
			t.Fatalf("runner reached with an invalid spec: %v", err)
		}
		switch {
		case rec.Code == http.StatusOK:
			var req RunRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatalf("200 for a body that does not decode: %v", err)
			}
			if err := req.Spec.Validate(); err != nil {
				t.Fatalf("200 for an invalid spec: %v", err)
			}
			if req.Spec.PacketLen > packet.MaxLength {
				t.Fatalf("200 for packet length %d above %d", req.Spec.PacketLen, packet.MaxLength)
			}
			if _, err := req.Config(); err != nil {
				t.Fatalf("200 for an invalid configuration: %v", err)
			}
		case rec.Code >= 400 && rec.Code < 500:
			var e ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("status %d with a non-JSON body %q", rec.Code, rec.Body.String())
			}
			switch e.Kind {
			case ErrKindBadRequest, ErrKindShed, ErrKindDraining, ErrKindNotFound:
			default:
				t.Fatalf("status %d with error kind %q", rec.Code, e.Kind)
			}
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	})
}

// TestRunRejectsLongPackets: a run whose packet length exceeds
// packet.MaxLength is refused with 400 and a message naming the limit,
// before any simulation.
func TestRunRejectsLongPackets(t *testing.T) {
	req := testRunRequest(t, 1)
	req.Spec.PacketLen = packet.MaxLength + 1
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := stubServer()
	rec := post(h, "/v1/run", body)
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusBadRequest || e.Kind != ErrKindBadRequest || !strings.Contains(e.Error, "MaxLength") {
		t.Fatalf("packet length %d: status %d %+v, want 400 naming MaxLength", req.Spec.PacketLen, rec.Code, e)
	}
}

// TestSweepRejectsTooManyPoints: a sweep above MaxSweepPoints is refused
// with 400 and a message naming the limit, before the saturation search.
// The engine is real, but the spec is small and the windows short, so
// without the bound the request would be answered quickly with 200.
func TestSweepRejectsTooManyPoints(t *testing.T) {
	spec, err := core.SpecByName(2, core.NameOptHybridSpec)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(SweepRequest{
		Spec: spec, Bench: "UniformRandom", Seed: 1,
		WarmupPs: int64(20 * sim.Nanosecond), MeasurePs: int64(200 * sim.Nanosecond), DrainPs: int64(50 * sim.Nanosecond),
		Points: MaxSweepPoints + 1, MaxFraction: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := post(NewServer(core.NewEngine(1), nil).Handler(), "/v1/sweep", body)
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("status %d, body %q: %v", rec.Code, rec.Body.String(), err)
	}
	if rec.Code != http.StatusBadRequest || e.Kind != ErrKindBadRequest || !strings.Contains(e.Error, "MaxSweepPoints") {
		t.Fatalf("%d points: status %d %+v, want 400 naming MaxSweepPoints", MaxSweepPoints+1, rec.Code, e)
	}
}
