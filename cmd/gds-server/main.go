// Command gds-server runs one Greenstone Directory Service node (paper
// §4.1/§6) over HTTP. Nodes form a stratum tree; give non-root nodes their
// parent's identity and address.
//
// Example of a two-node tree:
//
//	gds-server -id gds-root -addr 127.0.0.1:7001 -stratum 1
//	gds-server -id gds-nz   -addr 127.0.0.1:7002 -stratum 2 \
//	           -parent-id gds-root -parent-addr 127.0.0.1:7001
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/gds"
	"github.com/gsalert/gsalert/internal/node"
	"github.com/gsalert/gsalert/internal/obs"
	"github.com/gsalert/gsalert/internal/transport"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		id         = flag.String("id", "gds-1", "node identifier")
		addr       = flag.String("addr", "127.0.0.1:7001", "listen address")
		stratum    = flag.Int("stratum", 1, "stratum of this node (1 = primary)")
		parentID   = flag.String("parent-id", "", "parent node identifier (non-root nodes)")
		parentAddr = flag.String("parent-addr", "", "parent node address (non-root nodes)")
		dedupCap   = flag.Int("dedup-capacity", event.DefaultDedupCapacity, "message-ID dedup window (IDs remembered); larger windows cost ~100 B per ID but tolerate longer broadcast echo delays, smaller ones risk relaying late duplicates")

		// The ops flags shared with gs-server come from
		// node.OpsConfig.BindFlags. A directory node never samples — it
		// records route-hop spans for contexts the origin server already
		// sampled — so its only tracing decisions are on/off (-trace) and
		// ring size (-trace-capacity). It has no pipeline to dogfood
		// meta-alerts into, so its health plane is /healthz + /readyz +
		// ALERTS series only.
		traceOn = flag.Bool("trace", false, "record route-hop spans for sampled events passing through this node, served at GET /traces on the metrics endpoint")
	)
	var opsCfg node.OpsConfig
	opsCfg.BindFlags(flag.CommandLine)
	flag.Parse()

	tr := transport.NewHTTP()
	defer func() { _ = tr.Close() }()

	n, err := gds.NewNode(*id, *addr, *stratum, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gds-server: %v\n", err)
		return 1
	}
	defer func() { _ = n.Close() }()
	if *dedupCap != event.DefaultDedupCapacity {
		n.SetDedupCapacity(*dedupCap)
	}

	opsCfg.Prog, opsCfg.ID, opsCfg.Trace = "gds-server", *id, *traceOn
	ops, err := node.NewOps(opsCfg, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gds-server: %v\n", err)
		return 1
	}
	n.SetLog(ops.Log.For("gds"))
	if ops.Tracer != nil {
		n.SetTracer(ops.Tracer)
	}

	// Observability: the node's dissemination counters and per-link digest
	// tables join the process-wide series, scrapeable and/or pushed.
	obs.RegisterGDSNode(ops.Registry, n)
	var parentAttached atomic.Bool
	checks := []node.Check{{Name: "node", Ready: func() error { return nil }}}
	if *parentAddr != "" {
		checks = append(checks, node.Check{Name: "parent-attached", Ready: func() error {
			if !parentAttached.Load() {
				return errors.New("not attached to parent " + *parentID)
			}
			return nil
		}})
	}
	if err := ops.Start(func() any { return n.Snapshot() }, nil, checks...); err != nil {
		fmt.Fprintf(os.Stderr, "gds-server: %v\n", err)
		return 1
	}
	defer ops.Close()

	if *parentAddr != "" {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := n.AttachToParent(ctx, *parentID, *parentAddr)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "gds-server: attach to parent: %v\n", err)
			return 1
		}
		parentAttached.Store(true)
		fmt.Printf("gds-server %s (stratum %d) attached to %s at %s\n", *id, *stratum, *parentID, *parentAddr)
	} else {
		fmt.Printf("gds-server %s (stratum %d) running as root\n", *id, *stratum)
	}
	fmt.Printf("listening on %s\n", *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	return 0
}
