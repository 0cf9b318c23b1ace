// Package taustream streams TAU profile events from instrumented
// programs into the pdbd daemon, merging the paper's dynamic half
// (run-time profiling, §4.1) into the resident static-analysis
// service: many concurrent instrumented runs emit timer samples and
// call edges as they execute, and the daemon aggregates them into one
// live per-routine / per-template-instantiation profile.
//
// The package has three parts:
//
//   - the wire format (this file): length-framed varint events built
//     on the PDTB encoding helpers (internal/pdb);
//   - Client: a buffered, non-blocking emitter that implements
//     tau.Sink. A slow or absent daemon must never stall the profiled
//     program, so the client drops under pressure (counting
//     ingest.dropped) instead of blocking;
//   - Aggregator: the daemon-side accumulator, whose deterministic
//     Snapshot is served by pdbd's /v1/profile endpoints.
//
// Aggregation is purely additive — every event is a delta — so events
// are commutative across runs and a dropped event loses one sample
// without corrupting anything. Streaming a run with no drops yields
// exactly the run's one-shot profile (AddRuntime), which is the
// property the differential tests pin byte-for-byte.
package taustream

import (
	"fmt"

	"pdt/internal/pdb"
)

// Magic identifies a profile event stream ("PDTS": the PDT toolkit's
// streaming container, sibling of the PDTB database container).
const Magic = "PDTS"

// Version is the wire-format version. Unknown versions are rejected;
// unknown event kinds within a known version are skipped, so the
// format can grow kinds without breaking deployed daemons.
const Version = 1

// Kind discriminates event payloads.
type Kind uint8

const (
	// KindRunStart opens one instrumented run: carries the clock unit.
	KindRunStart Kind = 1
	// KindSample reports a completed timer scope: name (carrying the
	// CT(obj) template instantiation type), call count, inclusive and
	// exclusive time.
	KindSample Kind = 2
	// KindEdge reports a parent→child call-path edge.
	KindEdge Kind = 3
	// KindRunEnd closes a run: carries the client's dropped-event count
	// so the daemon knows how lossy the stream was.
	KindRunEnd Kind = 4
)

// Unit is the clock unit of a run's measurements.
type Unit uint8

const (
	// UnitSteps is the deterministic virtual clock.
	UnitSteps Unit = 0
	// UnitNanos is wall-clock nanoseconds.
	UnitNanos Unit = 1
)

// String returns the report spelling of the unit (tau.Runtime.Unit).
func (u Unit) String() string {
	if u == UnitNanos {
		return "nsec"
	}
	return "steps"
}

// UnitFor maps a tau clock-unit label ("steps", "nsec") to the wire
// unit.
func UnitFor(label string) Unit {
	if label == "nsec" {
		return UnitNanos
	}
	return UnitSteps
}

// Event is one profile event. Fields are a union over the kinds: a
// sample uses Name/Calls/Inclusive/Exclusive, an edge adds Parent, a
// run start uses Unit, a run end uses Dropped.
type Event struct {
	Kind      Kind
	Name      string // timer (sample) or child (edge) name
	Parent    string // edge parent ("<root>" for top-level scopes)
	Unit      Unit
	Calls     uint64
	Inclusive uint64
	Exclusive uint64
	Dropped   uint64
}

// AppendBatch encodes a batch: the stream header (magic + version)
// followed by one length-framed event per entry. Each frame is a
// uvarint payload length and then the payload, so a decoder can skip
// frames whose kind it does not understand.
func AppendBatch(dst []byte, events []Event) []byte {
	dst = append(dst, Magic...)
	dst = pdb.AppendUvarint(dst, Version)
	var payload []byte
	for i := range events {
		payload = appendEvent(payload[:0], &events[i])
		dst = pdb.AppendLenBytes(dst, payload)
	}
	return dst
}

func appendEvent(dst []byte, ev *Event) []byte {
	dst = append(dst, byte(ev.Kind))
	switch ev.Kind {
	case KindRunStart:
		dst = append(dst, byte(ev.Unit))
	case KindSample:
		dst = pdb.AppendLenString(dst, ev.Name)
		dst = pdb.AppendUvarint(dst, ev.Calls)
		dst = pdb.AppendUvarint(dst, ev.Inclusive)
		dst = pdb.AppendUvarint(dst, ev.Exclusive)
	case KindEdge:
		dst = pdb.AppendLenString(dst, ev.Parent)
		dst = pdb.AppendLenString(dst, ev.Name)
		dst = pdb.AppendUvarint(dst, ev.Calls)
		dst = pdb.AppendUvarint(dst, ev.Inclusive)
	case KindRunEnd:
		dst = pdb.AppendUvarint(dst, ev.Dropped)
	}
	return dst
}

// DecodeBatch decodes one encoded batch. Events of unknown kind are
// counted in skipped and otherwise ignored; any structural defect —
// bad magic, unsupported version, a frame that overruns the buffer —
// returns an error naming the offset.
func DecodeBatch(data []byte) (events []Event, skipped int, err error) {
	r := pdb.NewWireReader(data)
	if string(r.Bytes(len(Magic))) != Magic {
		return nil, 0, fmt.Errorf("taustream: missing %s magic", Magic)
	}
	if v := r.Uvarint(); r.Err() == nil && v != Version {
		return nil, 0, fmt.Errorf("taustream: unsupported version %d (have %d)", v, Version)
	}
	for r.Err() == nil && r.Remaining() > 0 {
		frame := r.Bytes(r.Length())
		if r.Err() != nil {
			break
		}
		ev, ok, ferr := decodeEvent(frame)
		if ferr != nil {
			return nil, skipped, fmt.Errorf("taustream: frame at offset %d: %w", r.Pos(), ferr)
		}
		if !ok {
			skipped++
			continue
		}
		events = append(events, ev)
	}
	if err := r.Err(); err != nil {
		return nil, skipped, fmt.Errorf("taustream: %w", err)
	}
	return events, skipped, nil
}

// decodeEvent decodes one frame payload. ok=false reports an unknown
// kind (skippable); an error reports a malformed known payload.
func decodeEvent(frame []byte) (Event, bool, error) {
	r := pdb.NewWireReader(frame)
	ev := Event{Kind: Kind(r.U8())}
	switch ev.Kind {
	case KindRunStart:
		ev.Unit = Unit(r.U8())
	case KindSample:
		ev.Name = r.LenString()
		ev.Calls = r.Uvarint()
		ev.Inclusive = r.Uvarint()
		ev.Exclusive = r.Uvarint()
	case KindEdge:
		ev.Parent = r.LenString()
		ev.Name = r.LenString()
		ev.Calls = r.Uvarint()
		ev.Inclusive = r.Uvarint()
	case KindRunEnd:
		ev.Dropped = r.Uvarint()
	default:
		return Event{}, false, r.Err()
	}
	return ev, true, r.Err()
}
