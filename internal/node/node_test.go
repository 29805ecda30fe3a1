package node

import (
	"context"
	"flag"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/gds"
	"github.com/gsalert/gsalert/internal/health"
	"github.com/gsalert/gsalert/internal/obs"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/qos"
	"github.com/gsalert/gsalert/internal/trace"
	"github.com/gsalert/gsalert/internal/transport"
)

// The addresses gs-server would be started with for a primary/standby pair:
// `-addr gs://alpha -replica-listen repl://alpha` and
// `-addr gs://alpha-b -replica-listen repl://alpha-b -replica-of repl://alpha`.
const (
	primaryAddr = "gs://alpha"
	primaryRepl = "repl://alpha"
	standbyAddr = "gs://alpha-b"
	standbyRepl = "repl://alpha-b"
)

func newDirectory(t *testing.T) (*transport.Memory, *gds.Node) {
	t.Helper()
	tr := transport.NewMemory(1)
	dir, err := gds.NewNode("gds0", "gds://gds0", 1, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = dir.Close()
		_ = tr.Close()
	})
	return tr, dir
}

func newPair(t *testing.T, tr transport.Transport, gdsAddr string) (primary, standby *Node) {
	t.Helper()
	mk := func(addr, listen, of string) *Node {
		n, err := New(Config{
			Core:          core.Config{ServerName: "Alpha", ServerAddr: addr, Transport: tr, ContentWarmup: -1},
			GDSAddr:       gdsAddr,
			ReplicaListen: listen,
			ReplicaOf:     of,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	return mk(primaryAddr, primaryRepl, ""), mk(standbyAddr, standbyRepl, primaryRepl)
}

// readiness evaluates the checks gs-server arms on its /readyz.
func readiness(n *Node) bool {
	eng := health.NewEngine(obs.NewRegistry(), nil, health.Options{})
	eng.AddReadiness("gds-registered", n.GDSRegistered)
	eng.AddReadiness("standby-caught-up", n.StandbyCaughtUp)
	return eng.Ready()
}

func TestPrimaryStandbyPair(t *testing.T) {
	ctx := context.Background()
	tr, dir := newDirectory(t)
	primary, standby := newPair(t, tr, dir.Addr())
	defer primary.Close()
	defer standby.Close()

	if primary.Primary == nil || primary.Standby != nil {
		t.Fatal("-replica-listen alone must build a primary role")
	}
	if standby.Standby == nil || standby.Primary != nil {
		t.Fatal("-replica-of must build a standby role")
	}
	if readiness(primary) {
		t.Error("primary ready before GDS registration")
	}
	if err := primary.Register(ctx); err != nil {
		t.Fatal(err)
	}
	if !readiness(primary) {
		t.Error("registered primary not ready")
	}

	// A subscription made before the join reaches the standby in the
	// snapshot; the standby is not ready until it has one.
	if _, err := primary.Service.Subscribe("alice", profile.MustParse(`collection = "Alpha.C"`)); err != nil {
		t.Fatal(err)
	}
	if err := standby.StandbyCaughtUp(); err == nil || readiness(standby) {
		t.Error("standby ready before it applied a snapshot")
	}
	if err := standby.Standby.Join(ctx); err != nil {
		t.Fatal(err)
	}
	if err := standby.StandbyCaughtUp(); err != nil || !readiness(standby) {
		t.Errorf("synced standby not ready: %v", err)
	}

	// After the join every subscription streams to the standby.
	if _, err := primary.Service.Subscribe("bob", profile.MustParse(`collection = "Alpha.D"`)); err != nil {
		t.Fatal(err)
	}
	if got := standby.Service.UserProfileCount(); got != 2 {
		t.Fatalf("standby holds %d profiles, want 2 (snapshot + stream)", got)
	}
	if got, want := standby.Service.ProfilesOf("bob"), primary.Service.ProfilesOf("bob"); len(got) != 1 || got[0] != want[0] {
		t.Errorf("standby profiles of bob = %v, want %v", got, want)
	}

	// A broken link makes the standby unready until a probe gets through.
	tr.SetNodeDown(primaryRepl, true)
	_ = standby.Standby.Heartbeat(ctx)
	if readiness(standby) {
		t.Error("standby ready while its primary is unreachable")
	}
	tr.SetNodeDown(primaryRepl, false)
	if err := standby.Standby.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}
	if !readiness(standby) {
		t.Error("standby not ready after the link healed")
	}

	// Promotion takes over the name in the directory; readiness holds.
	tr.SetNodeDown(primaryAddr, true)
	if err := standby.Standby.Promote(ctx, core.RouteBroadcast); err != nil {
		t.Fatal(err)
	}
	if !readiness(standby) {
		t.Error("promoted standby not ready")
	}
	if addr, err := primary.GDS.Resolve(ctx, "Alpha"); err != nil || addr != standbyAddr {
		t.Errorf("Alpha resolves to %q (%v), want the promoted standby %q", addr, err, standbyAddr)
	}
}

func TestCloseFreesAddresses(t *testing.T) {
	tr, dir := newDirectory(t)
	for i := 0; i < 2; i++ {
		primary, standby := newPair(t, tr, dir.Addr())
		if err := standby.Close(); err != nil {
			t.Fatalf("round %d: standby close: %v", i, err)
		}
		if err := primary.Close(); err != nil {
			t.Fatalf("round %d: primary close: %v", i, err)
		}
	}
}

func TestFailedAssemblyFreesAddresses(t *testing.T) {
	tr, dir := newDirectory(t)
	mk := func(addr, listen, of string) (*Node, error) {
		return New(Config{
			Core:          core.Config{ServerName: "Alpha", ServerAddr: addr, Transport: tr},
			GDSAddr:       dir.Addr(),
			ReplicaListen: listen,
			ReplicaOf:     of,
		})
	}
	if _, err := mk(standbyAddr, "", primaryRepl); err == nil {
		t.Fatal("standby without a replication endpoint accepted")
	}
	primary, err := mk(primaryAddr, primaryRepl, "")
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	// The replication endpoint is taken: assembly fails after the server
	// bound its address, and must release it again.
	if _, err := mk(standbyAddr, primaryRepl, ""); err == nil {
		t.Fatal("second primary on a bound replication endpoint accepted")
	}
	n, err := mk(standbyAddr, standbyRepl, primaryRepl)
	if err != nil {
		t.Fatalf("address not released by the failed assembly: %v", err)
	}
	_ = n.Close()
}

func TestAlertOnTransitionPublishes(t *testing.T) {
	tr, dir := newDirectory(t)
	n, err := New(Config{
		Core:    core.Config{ServerName: "Alpha", ServerAddr: primaryAddr, Transport: tr},
		GDSAddr: dir.Addr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	sink := core.NewMemoryNotifier()
	n.Service.RegisterNotifier("ops", sink)
	p := profile.NewUser("ops-prof", "ops", "Alpha", profile.MustParse(`event.type = "health-alert"`))
	p.Class = qos.ClassRealtime
	if err := n.Service.SubscribeProfile(p); err != nil {
		t.Fatal(err)
	}
	hook := AlertOnTransition(n.Service, func(err error) { t.Errorf("publish: %v", err) })
	hook(health.Transition{Component: "qos", From: health.Healthy, To: health.Degraded, Rule: "r", At: time.Unix(1_700_000_000, 0)})
	if err := n.Service.DrainDeliveries(context.Background()); err != nil {
		t.Fatal(err)
	}
	ns := sink.All()
	if len(ns) != 1 {
		t.Fatalf("ops received %d meta-alerts, want 1", len(ns))
	}
	if got := ns[0].Event.Docs[0].Metadata["health.state"]; len(got) != 1 || got[0] != "degraded" {
		t.Errorf("health.state = %v, want [degraded]", got)
	}
	if got := n.Service.Stats().HealthAlerts; got != 1 {
		t.Errorf("HealthAlerts = %d, want 1", got)
	}
}

func TestOpsFlagsAndRules(t *testing.T) {
	var cfg OpsConfig
	fs := flag.NewFlagSet("ops", flag.ContinueOnError)
	cfg.BindFlags(fs)
	if err := fs.Parse([]string{"-health", "-log-level", "debug"}); err != nil {
		t.Fatal(err)
	}
	if cfg.TraceCapacity != trace.DefaultCapacity || cfg.HealthTick != 10*time.Second || cfg.PushInterval != 15*time.Second {
		t.Errorf("flag defaults not applied: %+v", cfg)
	}
	cfg.Prog, cfg.ID, cfg.Trace = "test", "Alpha", true
	tr := transport.NewHTTP()
	defer tr.Close()
	ops, err := NewOps(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !ops.Tracer.Enabled() || ops.Log.For("core") == nil || ops.rules == nil {
		t.Fatal("tracer, recorder or default rules missing")
	}
	if err := ops.Start(func() any { return nil }, nil, Check{Name: "always", Ready: func() error { return nil }}); err != nil {
		t.Fatal(err)
	}
	ops.Close()

	for _, bad := range []OpsConfig{
		{LogLevel: "loud"},
		{LogLevel: "info", HealthRules: t.TempDir() + "/missing.rules"},
	} {
		if _, err := NewOps(bad, tr); err == nil {
			t.Errorf("NewOps(%+v) accepted", bad)
		}
	}
}
