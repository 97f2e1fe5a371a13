package fabric

import (
	"repro/internal/fault"
	"repro/internal/pkt"
	"repro/internal/recn"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// creditMsg returns flow-control credit to the upstream sender.
// queue is the remote ingress queue index for queue-level credits
// (VOQ mechanisms) or -1 for port-level credits.
type creditMsg struct {
	bytes int
	queue int
}

// linkSink receives everything arriving on one link direction. Data and
// tokens address the ingress unit of the receiving port; credits and
// the remaining RECN messages address the co-located egress unit (they
// answer traffic this side previously sent).
type linkSink interface {
	arriveData(p *pkt.Packet)
	arriveCredit(c creditMsg)
	arriveCtl(m recn.CtlMsg)
	// auditResident returns the bytes resident in the receive buffer the
	// sender's credits protect: the whole port RAM for queue -1, one
	// ingress queue otherwise. Hosts consume instantly and return 0.
	auditResident(queue int) int
	// reverseQuiet reports whether the opposite link direction (carrying
	// credits back to the sender) is completely silent.
	reverseQuiet(now sim.Time) bool
}

// dataSource is the egress side feeding a channel with data packets.
type dataSource interface {
	// pickData pops the next eligible data packet (consuming credits)
	// or returns nil when nothing can be sent right now.
	pickData() *txOrigin
	// txDone is called when the packet has fully left the port RAM.
	txDone(o *txOrigin)
}

// txOrigin remembers where a departing packet came from so residency
// can be released and controllers informed on completion. Records are
// pooled on the shard context; ch is bound by the channel that
// transmits the packet. In legacy mode the record returns to the pool
// when the packet reaches the sink (the later of its two scheduled
// events); in windowed mode the arrival travels by mailbox and the
// record is recycled at txDone instead.
type txOrigin struct {
	ch    *channel
	p     *pkt.Packet
	q     queueHandle
	saq   *recn.SAQ // nil for normal queues
	bytes int
}

// ctlItem kinds. The item is a value: both message payloads are held
// inline so queueing control traffic never allocates.
const (
	ctlCredit = iota
	ctlRECN
)

type ctlItem struct {
	size   int
	kind   uint8
	credit creditMsg
	recn   recn.CtlMsg
}

// ctlEv carries a control item from the serializer to its scheduled
// arrival at the sink (legacy mode only; windowed arrivals ride the
// mailbox). Records are pooled on the shard context.
type ctlEv struct {
	ch   *channel
	item ctlItem
}

// channel is one direction of a full-duplex pipelined link: a
// serializer shared by data packets and control messages (credits and
// RECN notifications), with control given priority (paper §4.1: flow
// control packets share the link bandwidth with data packets).
type channel struct {
	net *Network
	// sc is the shard context of the SENDING side (the unit that owns
	// this serializer). The receiving side's context is dstShard.
	sc      *shardCtx
	src     dataSource
	sink    linkSink
	rate    units.Rate
	latency sim.Time
	// loc is the sending port's trace location (set at attach time).
	loc trace.Loc

	// attemptFn is ch.attempt bound once, so kick never allocates a
	// method value on the hot path.
	attemptFn func()

	busyUntil sim.Time
	ctl       []ctlItem // FIFO, consumed from index ctlHead
	ctlHead   int

	kickPending bool

	// down: a scheduled link flap has failed this direction. The channel
	// starts no new transmissions; queued control and upstream data wait
	// (in-flight arrivals are unaffected — they left before the cut).
	down bool
	// inFlight counts scheduled arrivals (data and control) that have
	// not yet reached the sink; the credit auditor requires a fully
	// quiet link before comparing counters. Legacy mode only.
	inFlight int
	// dataInFlight counts just the data packets among them: the
	// invariant checker's packet census needs packets on the wire.
	// Maintained unconditionally (one integer op per packet per hop).
	// Legacy mode only.
	dataInFlight int

	// fv, when non-nil, is this channel's private fault view: its own
	// RNG stream (salted by channel ID), scripted-drop quotas and
	// corruption cadence, so verdicts depend only on this channel's
	// traffic.
	fv *fault.View
	// id is the deterministic wiring-order channel ID (see
	// numberChannels).
	id int32

	// Windowed-mode state. The split sent/recv counters replace
	// inFlight: the source shard writes sent*, the destination shard
	// writes recv*, and only barrier-context code reads both (distinct
	// words, so the windows never race).
	dstShard int32 // shard owning the sink
	sentData uint64
	sentCtl  uint64
	recvData uint64
	recvCtl  uint64
}

// init builds a channel in place (channels are embedded in their owning
// egress unit; the *channel handle is set at attach time, so a nil
// handle still means "unattached").
func (ch *channel) init(sc *shardCtx, src dataSource, sink linkSink) {
	*ch = channel{
		net:     sc.n,
		sc:      sc,
		src:     src,
		sink:    sink,
		rate:    units.LinkRate,
		latency: sc.n.cfg.LinkLatency,
	}
	ch.attemptFn = ch.attempt
}

// flight returns the messages sent but not yet delivered on this
// direction. Barrier/end-of-run context only in windowed mode.
func (ch *channel) flight() int {
	if ch.sc.sharded {
		return int((ch.sentData + ch.sentCtl) - (ch.recvData + ch.recvCtl))
	}
	return ch.inFlight
}

// dataFlight returns just the data packets in flight (the census term).
func (ch *channel) dataFlight() int {
	if ch.sc.sharded {
		return int(ch.sentData - ch.recvData)
	}
	return ch.dataInFlight
}

// pushCredit enqueues a credit return.
func (ch *channel) pushCredit(bytes, queue int) {
	if ch.sc.rec != nil {
		ch.sc.rec.Record(trace.EvCredit, ch.loc, "", int64(bytes), int64(queue), 0)
	}
	ch.ctl = append(ch.ctl, ctlItem{size: ch.net.cfg.CreditSize, kind: ctlCredit, credit: creditMsg{bytes: bytes, queue: queue}})
	ch.kick()
}

// pushCtl enqueues a RECN control message.
func (ch *channel) pushCtl(m recn.CtlMsg) {
	ch.ctl = append(ch.ctl, ctlItem{size: m.Size(), kind: ctlRECN, recn: m})
	ch.kick()
}

// kick triggers a transmission attempt: synchronously when the link is
// idle (kick is only ever called from event context), or scheduled for
// the moment the link frees (deduplicated).
func (ch *channel) kick() {
	if ch.kickPending {
		return
	}
	e := ch.sc.eng
	if e.Now() >= ch.busyUntil {
		ch.attempt()
		return
	}
	ch.kickPending = true
	e.Schedule(ch.busyUntil, ch.attemptFn)
}

// txDoneEvent fires when a data packet has fully left the sending port
// RAM: residency releases and the serializer is free for the next
// grant. In legacy mode the origin stays live — its arrival event is
// still pending; in windowed mode the arrival rides the mailbox, so
// the record recycles here.
func txDoneEvent(arg any) {
	o := arg.(*txOrigin)
	ch := o.ch
	ch.src.txDone(o)
	if ch.sc.sharded {
		ch.sc.freeOrigin(o)
	}
	ch.kick()
}

// dataArriveEvent fires when a data packet reaches the far end of the
// link (legacy mode). The origin record is recycled before the sink
// runs: the sink may synchronously grant new transmissions that need a
// fresh record.
func dataArriveEvent(arg any) {
	o := arg.(*txOrigin)
	ch, p := o.ch, o.p
	ch.sc.freeOrigin(o)
	ch.inFlight--
	ch.dataInFlight--
	ch.sink.arriveData(p)
}

func (ch *channel) attempt() {
	ch.kickPending = false
	if ch.down {
		return // restored by the flap schedule, which kicks again
	}
	e := ch.sc.eng
	if e.Now() < ch.busyUntil {
		ch.kick()
		return
	}
	// Control messages first: they are tiny and keep flow control and
	// RECN responsive.
	if ch.ctlHead < len(ch.ctl) {
		item := ch.ctl[ch.ctlHead]
		ch.ctl[ch.ctlHead] = ctlItem{}
		ch.ctlHead++
		if ch.ctlHead == len(ch.ctl) {
			ch.ctl = ch.ctl[:0]
			ch.ctlHead = 0
		}
		ser := ch.rate.Serialize(item.size)
		ch.busyUntil = e.Now() + ser
		if ch.fv != nil {
			switch v := ch.fv.CtlVerdict(item.faultKind()); {
			case v.Drop:
				// The message consumed link time but never arrives.
				if ch.sc.rec != nil {
					ch.sc.rec.Record(trace.EvFault, ch.loc, item.faultKind().String(), 0, trace.FaultDrop, 0)
				}
			case v.Dup:
				if ch.sc.rec != nil {
					ch.sc.rec.Record(trace.EvFault, ch.loc, item.faultKind().String(), 0, trace.FaultDup, 0)
				}
				ch.scheduleCtl(item, ch.busyUntil+ch.latency)
				ch.scheduleCtl(item, ch.busyUntil+ch.latency)
			default:
				if v.Delay > 0 && ch.sc.rec != nil {
					ch.sc.rec.Record(trace.EvFault, ch.loc, item.faultKind().String(), 0, trace.FaultDelay, int64(v.Delay))
				}
				ch.scheduleCtl(item, ch.busyUntil+ch.latency+v.Delay)
			}
		} else {
			ch.scheduleCtl(item, ch.busyUntil+ch.latency)
		}
		ch.kick() // keep draining
		return
	}
	// Then data, as chosen by the egress arbiter.
	o := ch.src.pickData()
	if o == nil {
		return
	}
	o.ch = ch
	if ch.sc.rec != nil {
		ch.sc.rec.RecordPacket(trace.EvSend, ch.loc, o.p.ID, o.p.Size, o.p.Src, o.p.Dst)
	}
	ser := ch.rate.Serialize(o.bytes)
	ch.busyUntil = e.Now() + ser
	if ch.fv != nil && ch.fv.CorruptData() {
		o.p.Corrupted = true
		if ch.sc.rec != nil {
			ch.sc.rec.Record(trace.EvFault, ch.loc, "data", 0, trace.FaultCorrupt, 0)
		}
	}
	e.ScheduleArg(ch.busyUntil, txDoneEvent, o)
	if ch.sc.sharded {
		ch.sc.sendData(ch, o.p, ch.busyUntil+ch.latency)
		return
	}
	ch.inFlight++
	ch.dataInFlight++
	e.ScheduleArg(ch.busyUntil+ch.latency, dataArriveEvent, o)
}

// ctlArriveEvent delivers a control message to the sink (legacy mode).
// The event record is recycled before the sink runs (it may
// synchronously queue new control traffic that needs a record).
func ctlArriveEvent(arg any) {
	ev := arg.(*ctlEv)
	ch, item := ev.ch, ev.item
	ch.sc.freeCtlEv(ev)
	ch.inFlight--
	if item.kind == ctlCredit {
		ch.sink.arriveCredit(item.credit)
	} else {
		ch.sink.arriveCtl(item.recn)
	}
}

// scheduleCtl schedules a control message's arrival at the sink,
// tracking it as in flight until delivered. Windowed mode routes the
// arrival through the boundary mailbox instead of a direct event.
func (ch *channel) scheduleCtl(item ctlItem, at sim.Time) {
	if ch.sc.sharded {
		ch.sc.sendCtl(ch, item, at)
		return
	}
	ch.inFlight++
	ev := ch.sc.allocCtlEv()
	ev.ch, ev.item = ch, item
	ch.sc.eng.ScheduleArg(at, ctlArriveEvent, ev)
}

// quiet reports whether this direction is completely silent: nothing
// serializing, nothing queued and nothing in flight.
func (ch *channel) quiet(now sim.Time) bool {
	return now >= ch.busyUntil && ch.ctlHead >= len(ch.ctl) && ch.flight() == 0
}

// faultKind maps a control item to its fault-injection kind.
func (item ctlItem) faultKind() fault.Kind {
	if item.kind == ctlCredit {
		return fault.Credit
	}
	switch item.recn.Kind {
	case recn.MsgToken:
		return fault.Token
	case recn.MsgNotify, recn.MsgHintOn, recn.MsgHintOff:
		// ARN hints share the notification fault class: like RECN
		// notifications they are advisory — a dropped hint only costs
		// routing quality, never correctness (see DESIGN.md §16).
		return fault.Notify
	case recn.MsgXoff:
		return fault.Xoff
	default:
		return fault.Xon
	}
}
