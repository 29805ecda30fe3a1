package node

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/gsalert/gsalert/internal/health"
	"github.com/gsalert/gsalert/internal/logging"
	"github.com/gsalert/gsalert/internal/obs"
	"github.com/gsalert/gsalert/internal/trace"
	"github.com/gsalert/gsalert/internal/transport"
)

// OpsConfig configures the ops plane of one server process: structured
// logging with its flight recorder (docs/LOGGING.md), tracing
// (docs/TRACING.md), the metric registry with its HTTP endpoint and push
// exporter (docs/OBSERVABILITY.md) and the health engine (docs/HEALTH.md).
type OpsConfig struct {
	// Prog and ID name the process in console lines ("gs-server Hamilton")
	// and ID names it as a trace service.
	Prog, ID string

	// Trace turns tracing on. TraceSample is the head-sampling rate,
	// TraceSlow the tail-retain threshold (0 disables each) and
	// TraceCapacity the span ring's size.
	Trace         bool
	TraceSample   float64
	TraceSlow     time.Duration
	TraceCapacity int

	// LogLevel is the minimum level kept ("debug" … "off"), LogRing the
	// per-component ring size and LogRate the per-component stderr
	// lines/sec cap (0 = unlimited). FlightDir, when set, receives a
	// post-mortem bundle on every transition into critical.
	LogLevel  string
	LogRing   int
	LogRate   float64
	FlightDir string

	// MetricsAddr serves /metrics, /stats and the debug endpoints; PushURL
	// starts the push exporter. Empty disables each. Pprof mounts
	// /debug/pprof/ on the metrics endpoint.
	MetricsAddr  string
	PushURL      string
	PushInterval time.Duration
	PushMaxBps   int
	Pprof        bool

	// Health evaluates rules every HealthTick against the registry; a
	// HealthRules file implies it and replaces the built-in defaults.
	Health      bool
	HealthRules string
	HealthTick  time.Duration
}

// BindFlags declares on fs the ops flags both server binaries share.
func (c *OpsConfig) BindFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.MetricsAddr, "metrics-addr", "", "serve the Prometheus metric catalog over HTTP at this address (GET /metrics, plus the process snapshot as JSON at GET /stats, /traces, /debug/flightrecorder and, with -health, /healthz + /readyz); empty disables")
	fs.StringVar(&c.PushURL, "metrics-push-url", "", "push gzip'd Prometheus snapshots to this HTTP sink (e.g. a VictoriaMetrics import endpoint); empty disables")
	fs.DurationVar(&c.PushInterval, "metrics-push-interval", 15*time.Second, "interval between pushed metric snapshots")
	fs.IntVar(&c.PushMaxBps, "metrics-push-max-bps", 0, "bandwidth cap for pushed snapshots in compressed bytes/sec; 0 = unlimited")
	fs.IntVar(&c.TraceCapacity, "trace-capacity", trace.DefaultCapacity, "span slots in the in-memory trace ring (drop-oldest)")
	fs.BoolVar(&c.Pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/ on the metrics endpoint (docs/OBSERVABILITY.md)")
	fs.StringVar(&c.LogLevel, "log-level", "info", "minimum structured-log level kept: debug, info, warn, error or off; kept records land in the per-component flight rings and on stderr")
	fs.IntVar(&c.LogRing, "log-ring", logging.DefaultRingSize, "per-component flight-ring capacity in records (drop-oldest)")
	fs.StringVar(&c.FlightDir, "flight-dir", "", "directory for post-mortem flight bundles: each health transition into critical writes one JSONL bundle here; empty keeps captures on-demand only (GET /debug/flightrecorder, gs-client logs)")
	fs.BoolVar(&c.Health, "health", false, "evaluate health rules against the process's own metric registry and serve /healthz + /readyz on the metrics endpoint, with ALERTS series; implied by -health-rules")
	fs.StringVar(&c.HealthRules, "health-rules", "", "health rule file (docs/HEALTH.md grammar); empty = the built-in defaults")
	fs.DurationVar(&c.HealthTick, "health-tick", 10*time.Second, "health rule evaluation cadence (scrape-like pull; zero hot-path cost)")
}

// Ops is one process's ops plane. NewOps builds the parts the server needs
// while it is assembled (Log, Tracer, Registry); Start arms the rest over
// the sources the caller has registered since.
type Ops struct {
	Log      *logging.Recorder
	Tracer   *trace.Tracer
	Registry *obs.Registry

	cfg     OpsConfig
	rules   *health.RuleSet // nil: health plane off
	closers []func()
}

// Check is one named /readyz readiness check.
type Check struct {
	Name  string
	Ready func() error
}

// NewOps builds the logging recorder (stderr sink), the tracer and the
// registry with the process-wide series — Go runtime, the HTTP
// transport's wire counters, logging and tracing self-monitoring — and
// loads the health rules, so a bad rule file fails before anything serves.
func NewOps(cfg OpsConfig, tr *transport.HTTP) (*Ops, error) {
	lvl, err := logging.ParseLevel(cfg.LogLevel)
	if err != nil {
		return nil, err
	}
	o := &Ops{
		cfg: cfg,
		Log: logging.NewRecorder(logging.Config{
			Level:     lvl,
			RingSize:  cfg.LogRing,
			Sink:      os.Stderr,
			RateLimit: cfg.LogRate,
		}),
		Registry: obs.NewRegistry(),
	}
	if cfg.Trace {
		o.Tracer = trace.New(trace.Config{
			Service:    cfg.ID,
			SampleRate: cfg.TraceSample,
			SlowRoot:   cfg.TraceSlow,
			Collector:  trace.NewCollector(cfg.TraceCapacity),
		})
		obs.RegisterTrace(o.Registry, o.Tracer.Collector())
	}
	obs.RegisterHTTPTransport(o.Registry, tr)
	obs.RegisterGoRuntime(o.Registry)
	obs.RegisterLogging(o.Registry, o.Log)
	if cfg.Health || cfg.HealthRules != "" {
		o.rules = health.DefaultRules()
		if cfg.HealthRules != "" {
			raw, err := os.ReadFile(cfg.HealthRules)
			if err == nil {
				o.rules, err = health.ParseRules(string(raw))
			}
			if err != nil {
				return nil, fmt.Errorf("health rules: %w", err)
			}
		}
	}
	return o, nil
}

// Start arms the flight recorder (bundles embed stats() as the /stats
// payload plus the retained trace IDs), the health engine with the given
// readiness checks — every transition into critical dumps a bundle to
// FlightDir, then goes to onTransition when set — the ops HTTP server and
// the push exporter. On error it stops whatever it had armed.
func (o *Ops) Start(stats func() any, onTransition func(health.Transition), checks ...Check) error {
	flight := logging.NewFlightRecorder(logging.FlightConfig{
		Recorder: o.Log,
		Dir:      o.cfg.FlightDir,
		Stats:    stats,
		TraceIDs: o.Tracer.Collector().TraceIDs,
	})
	obs.RegisterFlight(o.Registry, flight)
	opts := []obs.ServeOption{obs.WithFlightRecorder(flight)}
	if o.Tracer.Enabled() {
		opts = append(opts, obs.WithTraces(o.Tracer.Collector()))
	}
	if o.cfg.Pprof {
		opts = append(opts, obs.WithPprof())
	}
	if o.rules != nil {
		eng := health.NewEngine(o.Registry, o.rules, health.Options{
			Log: o.Log.For("health"),
			OnTransition: func(tr health.Transition) {
				if tr.To == health.Critical && o.cfg.FlightDir != "" {
					// Capture while the records that led here still sit in
					// the rings.
					if path, err := flight.DumpToDir("critical:" + tr.Component); err != nil {
						fmt.Fprintf(os.Stderr, "%s: flight dump: %v\n", o.cfg.Prog, err)
					} else {
						fmt.Printf("%s %s flight bundle captured: %s\n", o.cfg.Prog, o.cfg.ID, path)
					}
				}
				if onTransition != nil {
					onTransition(tr)
				}
			},
		})
		eng.Register(o.Registry)
		for _, c := range checks {
			eng.AddReadiness(c.Name, c.Ready)
		}
		eng.Start(o.cfg.HealthTick)
		o.closers = append(o.closers, eng.Close)
		opts = append(opts, health.Endpoints(eng))
		fmt.Printf("%s %s health plane on (%d rules, tick %s)\n", o.cfg.Prog, o.cfg.ID, len(o.rules.Rules), o.cfg.HealthTick)
	}
	if addr := o.cfg.MetricsAddr; addr != "" {
		closeOps, err := obs.ServeOps(addr, o.Registry, stats, opts...)
		if err != nil {
			o.Close()
			return fmt.Errorf("ops server: %w", err)
		}
		o.closers = append(o.closers, closeOps)
		fmt.Printf("%s %s serving http://%s/metrics and http://%s/stats\n", o.cfg.Prog, o.cfg.ID, addr, addr)
	}
	if o.cfg.PushURL != "" {
		exp, err := obs.NewExporter(o.Registry, obs.ExporterConfig{
			URL:            o.cfg.PushURL,
			Interval:       o.cfg.PushInterval,
			MaxBytesPerSec: o.cfg.PushMaxBps,
		})
		if err != nil {
			o.Close()
			return fmt.Errorf("metrics exporter: %w", err)
		}
		o.closers = append(o.closers, exp.Close)
		fmt.Printf("%s %s pushing metrics to %s every %s\n", o.cfg.Prog, o.cfg.ID, o.cfg.PushURL, o.cfg.PushInterval)
	}
	return nil
}

// Close stops whatever Start armed, in reverse order. Callers close the
// plane before the server it watches.
func (o *Ops) Close() {
	for i := len(o.closers) - 1; i >= 0; i-- {
		o.closers[i]()
	}
	o.closers = nil
}
