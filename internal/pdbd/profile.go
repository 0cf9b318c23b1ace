package pdbd

// Live-profile endpoints: the daemon side of internal/taustream.
// Instrumented programs (taurun -stream) POST length-framed profile
// event batches to /v1/profile/ingest; the aggregate is served as
// flat + call-path JSON (/v1/profile) and as a pdbhtml-style
// dashboard fragment (/v1/profile/html).
//
// Unlike the corpus endpoints, profile responses are not keyed into
// the content-addressed result cache: their content is a function of
// the live event stream, not of the corpus fingerprint, so a
// fingerprint-keyed entry would serve stale profiles forever. They
// get the same warm-path treatment a different way — each renderer
// memoizes its body on the aggregator epoch, so an idle dashboard
// polled by many clients renders once per state change — and a
// corpus reload deliberately leaves the aggregate untouched (the
// profile describes program runs, not the database).

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"pdt/internal/corpus"
	"pdt/internal/schema"
	"pdt/internal/taustream"
)

// DefaultIngestMaxBytes caps one ingest request body (8 MiB ≈ two
// million framed events — far beyond any sane batch) unless the
// config overrides it.
const DefaultIngestMaxBytes = 8 << 20

func (s *Server) handleProfileIngest(w http.ResponseWriter, r *http.Request) {
	s.metrics.Counter("ingest.requests").Add(1)
	body := http.MaxBytesReader(w, r.Body, s.ingestMax)
	n, err := s.profile.Ingest(body)
	if err != nil {
		var mbe *http.MaxBytesError
		switch {
		case errors.As(err, &mbe):
			err = fmt.Errorf("%w: ingest body exceeds the %d-byte cap", corpus.ErrBadRequest, mbe.Limit)
		case errors.Is(err, taustream.ErrMalformed):
			err = fmt.Errorf("%w: %v", corpus.ErrBadRequest, err)
		}
		s.fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		SchemaVersion int    `json:"schema_version"`
		Events        int    `json:"events"`
		Runs          uint64 `json:"runs"`
	}{schema.Version, n, s.profile.Snapshot().Runs})
}

// liveMemo caches one rendered live-profile body keyed by the
// aggregator epoch it was rendered at.
type liveMemo struct {
	mu    sync.Mutex
	valid bool
	epoch uint64
	body  []byte
}

// serveLive answers one live-profile request: render at most once per
// aggregator epoch, stamping the same cache-disposition and
// fingerprint headers the corpus endpoints use ("mem" = memoized body
// reused, "miss" = rendered now).
func (s *Server) serveLive(w http.ResponseWriter, memo *liveMemo, contentType string,
	render func(*taustream.Snapshot) ([]byte, error)) {

	w.Header().Set("X-Pdbd-Fingerprint", s.st.Load().fingerprint)

	memo.mu.Lock()
	defer memo.mu.Unlock()
	epoch := s.profile.Epoch()
	tier := "mem"
	if !memo.valid || memo.epoch != epoch {
		body, err := render(s.profile.Snapshot())
		if err != nil {
			s.fail(w, err)
			return
		}
		memo.valid, memo.epoch, memo.body = true, epoch, body
		tier = "miss"
		s.metrics.Counter("profile.rendered").Add(1)
	} else {
		s.metrics.Counter("profile.memo_hits").Add(1)
	}
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("X-Pdbd-Cache", tier)
	_, _ = w.Write(memo.body)
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	s.serveLive(w, &s.profileJSON, "application/json", func(snap *taustream.Snapshot) ([]byte, error) {
		return renderBody(snap.WriteJSON)
	})
}

func (s *Server) handleProfileHTML(w http.ResponseWriter, r *http.Request) {
	s.serveLive(w, &s.profileHTML, "text/html; charset=utf-8", func(snap *taustream.Snapshot) ([]byte, error) {
		return renderBody(func(w io.Writer) error { return taustream.WriteHTML(w, snap) })
	})
}
