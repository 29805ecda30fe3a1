// Composite alerts walkthrough: one Greenstone server over real HTTP, a
// client holding three temporal profiles — a sequence ("new documents,
// then a rebuild"), an accumulation ("three rebuilds"), and a daily digest
// of rebuild summaries — and a collection rebuilt several times. Primitive
// matches drive the composite engine's state machines; completed
// composites arrive as synthesized notifications carrying the
// contributing events (see docs/COMPOSITE.md).
//
//	go run ./examples/composite-alerts
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/gds"
	"github.com/gsalert/gsalert/internal/node"
	"github.com/gsalert/gsalert/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "composite-alerts: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	tr := transport.NewHTTP()
	defer func() { _ = tr.Close() }()

	dir, err := gds.NewNode("gds-root", "127.0.0.1:17101", 1, tr)
	if err != nil {
		return err
	}
	defer func() { _ = dir.Close() }()

	hamilton, err := node.New(node.Config{
		Core:    core.Config{ServerName: "Hamilton", ServerAddr: "127.0.0.1:18101", Transport: tr},
		GDSAddr: dir.Addr(),
	})
	if err != nil {
		return err
	}
	defer func() { _ = hamilton.Close() }()
	if err := hamilton.Register(ctx); err != nil {
		return err
	}
	svc, srv := hamilton.Service, hamilton.Server

	// alice's three temporal profiles. The windows are generous; the
	// walkthrough advances the engine clock explicitly instead of waiting.
	sink := core.NewMemoryNotifier()
	svc.RegisterNotifier("alice", sink)
	profiles := map[string]string{}
	for name, src := range map[string]string{
		"sequence": `SEQUENCE (collection = "Hamilton.Reports" AND event.type = "documents-added") THEN (collection = "Hamilton.Reports" AND event.type = "collection-rebuilt") WITHIN 24h`,
		"count":    `COUNT 3 OF (collection = "Hamilton.Reports" AND event.type = "collection-rebuilt")`,
		"digest":   `DIGEST (collection = "Hamilton.Reports" AND event.type = "collection-rebuilt") EVERY 24h`,
	} {
		id, err := svc.SubscribeComposite("alice", src)
		if err != nil {
			return err
		}
		profiles[id] = name
		fmt.Printf("alice subscribed %-8s %s\n", name, src)
	}

	// Build the collection, then rebuild it three times with one new
	// document each round.
	if _, err := srv.AddCollection(ctx, collection.Config{
		Name: "Reports", Title: "Weekly Reports", Public: true,
	}); err != nil {
		return err
	}
	docs := []*collection.Document{{ID: "r0", Content: "baseline report"}}
	if _, _, err := srv.Build(ctx, "Reports", docs); err != nil {
		return err
	}
	for round := 1; round <= 3; round++ {
		docs = append(docs, &collection.Document{
			ID:      fmt.Sprintf("r%d", round),
			Content: fmt.Sprintf("report of round %d", round),
		})
		if _, _, err := srv.Build(ctx, "Reports", docs); err != nil {
			return err
		}
	}
	if err := svc.DrainDeliveries(ctx); err != nil {
		return err
	}
	report(sink, profiles, "after three rebuilds")

	// A simulated day passes: the digest flushes everything it accrued.
	svc.CompositeTick(time.Now().Add(25 * time.Hour))
	if err := svc.DrainDeliveries(ctx); err != nil {
		return err
	}
	report(sink, profiles, "after the digest period elapsed")

	st := svc.Stats()
	fmt.Printf("\nengine: %d primitives consumed, %d firings, %d digest flushes, %d live instances\n",
		st.CompositePrimitives, st.CompositeFirings, st.CompositeDigestFlushes, st.CompositeLiveInstances)
	return nil
}

// report prints what alice has received so far.
func report(sink *core.MemoryNotifier, profiles map[string]string, when string) {
	fmt.Printf("\nalice's notifications %s:\n", when)
	for _, n := range sink.All() {
		fmt.Printf("  %-8s alert via %-8s with %d contributing events:\n",
			n.Composite, profiles[n.ProfileID], len(n.Contributing))
		for _, ev := range n.Contributing {
			fmt.Printf("    %-20s %s (build %d)\n", ev.Type, ev.Collection, ev.BuildVersion)
		}
	}
}
