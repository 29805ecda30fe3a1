package main

import (
	"github.com/gsalert/gsalert/internal/protocol"
)

// layerTypes are the message types whose per-event counts and bytes the
// traced run reports as transport.msgs_per_event.<type> and
// transport.bytes_per_event.<type>.
var layerTypes = []protocol.MessageType{
	protocol.MsgBroadcast, protocol.MsgResolve, protocol.MsgEvent,
	protocol.MsgNotifyBatch, protocol.MsgReplWAL, protocol.MsgReplSubscribe,
}

// layerMetrics derives the per-layer metrics of a traced measurement from
// its spans (open-loop phase unless noted) and the counter snapshots.
func layerMetrics(in *inputs, m *measurement) map[string]float64 {
	tr := m.tr
	spans := tr.spans
	childNS := make([]int64, len(spans))
	for _, sp := range spans {
		if sp.parent >= 0 {
			childNS[sp.parent] += sp.end - sp.start
		}
	}
	selfUS := func(i int) float64 { return float64(spans[i].end-spans[i].start-childNS[i]) / 1e3 }
	durUS := func(i int) float64 { return float64(spans[i].end-spans[i].start) / 1e3 }

	var (
		publishSelf, recvSelf, hopSelf  []float64
		match, notify, repl, client     []float64
		add, remove                     []float64
		useful, batchItems              float64
		msgs, bytes                     = map[protocol.MessageType]float64{}, map[protocol.MessageType]float64{}
		hops, replWAL, replSub, matches float64
	)
	for i, sp := range spans {
		if sp.phase != phaseOpen {
			continue
		}
		switch sp.kind {
		case kindPublish:
			publishSelf = append(publishSelf, selfUS(i))
		case kindMatch:
			match = append(match, durUS(i))
			matches++
			if sp.n > 0 {
				useful++
			}
		case kindAdd:
			add = append(add, durUS(i))
		case kindRemove:
			remove = append(remove, durUS(i))
		case kindNotify:
			notify = append(notify, durUS(i))
			batchItems += float64(sp.n)
		case kindSend:
			msgs[sp.typ]++
			bytes[sp.typ] += float64(sp.n)
			switch sp.typ {
			case protocol.MsgReplWAL:
				replWAL++
				repl = append(repl, durUS(i))
			case protocol.MsgReplSubscribe:
				replSub++
				repl = append(repl, durUS(i))
			}
		case kindRecv:
			switch {
			case sp.role == "gs" && sp.typ == protocol.MsgEvent:
				recvSelf = append(recvSelf, selfUS(i))
			case sp.role == "gds" && sp.typ == protocol.MsgBroadcast:
				hopSelf = append(hopSelf, selfUS(i))
				hops++
			case sp.role == "client":
				client = append(client, durUS(i))
			}
		}
	}

	events := float64(in.publishes[0])
	dups := m.openSum(func(c counters) int64 { return c.dups })
	out := map[string]float64{
		"core.publish_self_us":       mean(publishSelf),
		"core.recv_self_us":          mean(recvSelf),
		"core.dup_drop_ratio":        ratio(dups, dups+m.openSum(func(c counters) int64 { return c.recvd })),
		"filter.match_us_p50":        quantile(match, 0.5),
		"filter.match_us_p99":        quantile(match, 0.99),
		"filter.evals_per_call":      ratio(m.openSum(func(c counters) int64 { return c.evals }), matches),
		"filter.useful_ratio":        ratio(useful, matches),
		"filter.add_us_p99":          quantile(add, 0.99),
		"filter.remove_us_p99":       quantile(remove, 0.99),
		"qos.admitted_per_event":     m.openSum(func(c counters) int64 { return c.admitted }) / events,
		"qos.shed":                   float64(m.total[1].shed - m.total[0].shed),
		"delivery.dwell_ms_p50":      quantile(tr.dwell, 0.5),
		"delivery.dwell_ms_p99":      quantile(tr.dwell, 0.99),
		"delivery.batch_size_mean":   ratio(batchItems, float64(len(notify))),
		"delivery.backlog_max":       float64(m.backlogMax),
		"notify.batch_us_p50":        quantile(notify, 0.5),
		"notify.batch_us_p99":        quantile(notify, 0.99),
		"notify.msgs_per_event":      msgs[protocol.MsgNotifyBatch] / events,
		"notify.bytes_per_event":     bytes[protocol.MsgNotifyBatch] / events,
		"gds.hop_self_us":            mean(hopSelf),
		"gds.hops_per_event":         hops / events,
		"replica.stream_us_p50":      quantile(repl, 0.5),
		"replica.stream_us_p99":      quantile(repl, 0.99),
		"replica.records_per_event":  replWAL / events,
		"replica.records_per_change": ratio(replSub, float64(in.changes)),
		"replica.lag_max":            float64(m.lagMax),
		"gen.late_p99_ms":            quantile(m.lateMS, 0.99),
		"client.recv_us":             mean(client),
	}
	for _, typ := range layerTypes {
		out["transport.msgs_per_event."+string(typ)] = msgs[typ] / events
		out["transport.bytes_per_event."+string(typ)] = bytes[typ] / events
	}
	return out
}
