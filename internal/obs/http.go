package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/gsalert/gsalert/internal/logging"
	"github.com/gsalert/gsalert/internal/trace"
)

// TextContentType is the Prometheus text exposition content type.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// OpenMetricsContentType is the negotiated exposition content type when the
// scraper accepts OpenMetrics (exemplar annotations, `# EOF` terminator).
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// Handler serves the registry's exposition at GET /metrics semantics (any
// method is accepted; scraping is read-only). Content negotiation: a
// scraper whose Accept header names application/openmetrics-text gets the
// OpenMetrics variant with histogram exemplars; everyone else gets the
// text format, byte-identical to what it was before exemplars existed.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req != nil && strings.Contains(req.Header.Get("Accept"), "application/openmetrics-text") {
			w.Header().Set("Content-Type", OpenMetricsContentType)
			_ = r.WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", TextContentType)
		_ = r.WritePrometheus(w)
	})
}

// ServeOption extends ServeOps with additional endpoints.
type ServeOption func(mux *http.ServeMux)

// WithTraces serves the collector's assembled traces at `/traces` as JSON,
// filterable with query parameters: `min_ms` (minimum end-to-end duration in
// milliseconds), `class` (QoS class name), `stage` (span/stage name) and
// `limit` (maximum traces returned, most recent first; default 100). See
// docs/TRACING.md.
func WithTraces(col *trace.Collector) ServeOption {
	return func(mux *http.ServeMux) {
		mux.Handle("/traces", TracesHandler(col))
	}
}

// WithPprof mounts the standard net/http/pprof profile endpoints under
// `/debug/pprof/`. Off by default — profiles expose internals and cost CPU —
// and enabled by the servers' -pprof flag (docs/OBSERVABILITY.md).
func WithPprof() ServeOption {
	return func(mux *http.ServeMux) {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// WithFlightRecorder serves on-demand post-mortem bundles at
// `/debug/flightrecorder`: the same JSONL bundle the server writes when
// the health plane turns a component critical, captured at request time.
// `gs-client logs` pulls and renders it. See docs/LOGGING.md.
func WithFlightRecorder(fr *logging.FlightRecorder) ServeOption {
	return func(mux *http.ServeMux) {
		mux.Handle("/debug/flightrecorder", FlightHandler(fr))
	}
}

// FlightHandler serves one flight recorder's bundle (the
// /debug/flightrecorder endpoint of WithFlightRecorder, exposed for tests
// and custom muxes). The optional `reason` query parameter is recorded in
// the bundle header in place of the default "manual".
func FlightHandler(fr *logging.FlightRecorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		reason := "manual"
		if req != nil {
			if v := req.URL.Query().Get("reason"); v != "" {
				reason = v
			}
		}
		raw, err := fr.DumpJSONL(reason)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_, _ = w.Write(raw)
	})
}

// TracesHandler serves one collector's traces as JSON (the /traces endpoint
// of WithTraces, exposed for tests and custom muxes).
func TracesHandler(col *trace.Collector) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		f := trace.Filter{Class: q.Get("class"), Stage: q.Get("stage"), Limit: 100}
		if v := q.Get("min_ms"); v != "" {
			ms, err := strconv.ParseFloat(v, 64)
			if err != nil {
				http.Error(w, "bad min_ms: "+err.Error(), http.StatusBadRequest)
				return
			}
			f.MinDuration = time.Duration(ms * float64(time.Millisecond))
		}
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				http.Error(w, "bad limit: "+err.Error(), http.StatusBadRequest)
				return
			}
			f.Limit = n
		}
		traces := col.Traces(f)
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Traces  []*trace.Trace `json:"traces"`
			Dropped int64          `json:"dropped_spans"`
		}{Traces: traces, Dropped: col.Dropped()})
	})
}

// ServeOps starts the operational HTTP endpoint of one server process on
// addr: `/metrics` serves the registry's Prometheus exposition and, when
// statsJSON is non-nil, `/stats` (and `/`, for clients of the original
// JSON-only endpoint) serves its value as indented JSON. Options
// add more endpoints (WithTraces, WithPprof). The returned func stops the
// server.
func ServeOps(addr string, reg *Registry, statsJSON func() any, opts ...ServeOption) (func(), error) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(reg))
	if statsJSON != nil {
		js := func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(statsJSON())
		}
		mux.HandleFunc("/stats", js)
		mux.HandleFunc("/", js)
	}
	for _, opt := range opts {
		opt(mux)
	}
	server := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- server.ListenAndServe() }()
	// Fail fast on an unbindable address instead of dying silently later.
	select {
	case err := <-errCh:
		return nil, err
	case <-time.After(100 * time.Millisecond):
	}
	return func() { _ = server.Close() }, nil
}
