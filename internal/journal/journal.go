// Package journal is the append-only event log of an evolving world: one
// binary file recording, per tick, the events the tick engine applied and
// the RNG stream key their application drew from, plus checkpoint markers
// pointing at periodic flat snapshots. Together with the genesis
// configuration in the header, the journal is a complete recipe for
// rebuilding the world at any recorded tick — replay is byte-identical to
// the live run, at any worker count.
//
// The format is deliberately dumb: a magic string, then self-delimiting
// records framed as
//
//	kind (1 byte) | payload length (u32 LE) | payload (JSON) | CRC-32 (u32 LE)
//
// with the CRC covering kind+length+payload. JSON payloads keep the
// records debuggable (`strings journal.rpj` shows the event history); the
// framing CRC keeps damage detectable. Every commit is one write(2) of a
// fully-framed record, so a crash leaves at worst a torn tail — which
// Recover truncates — and never a half-applied tick. Damage anywhere else
// (a flipped byte) surfaces as a typed error, never a panic and never a
// silently-wrong history: the same decoder contract the snapshot formats
// honor.
//
// # Durability
//
// A single write(2) survives a crashed *process*, but not a crashed
// *machine*: the bytes sit in the page cache until the kernel flushes
// them, so a power cut (or kill -9 plus an unsynced unmount) can lose
// ticks the caller already acked. The journal's SyncPolicy names the
// guarantee explicitly:
//
//   - SyncCommit (the default): Commit fsyncs before returning, so every
//     acked tick is on stable storage. A machine crash loses nothing.
//   - SyncCheckpoint: only checkpoint markers fsync. A machine crash can
//     lose acked ticks back to the last checkpoint; a process crash still
//     loses nothing.
//   - SyncOff: no fsync at all — benchmarks and throwaway runs. A machine
//     crash can lose any unflushed suffix of the journal.
//
// Whatever is lost is lost from the *tail*: the commit order and the
// one-write framing mean recovery always sees a valid prefix of the acked
// history, never a gap or a reordering.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

// Magic identifies a journal file.
const Magic = "RPJRNL1\n"

// Record kinds. The header is always the first record; ticks and
// checkpoints follow in commit order.
const (
	kindHeader     byte = 1
	kindTick       byte = 2
	kindCheckpoint byte = 3
)

// maxPayload bounds a record's declared payload length. A legitimate
// record — a tick's event list, a config header — is well under a
// kilobyte; the cap keeps a corrupted length field from provoking a
// multi-gigabyte allocation before the CRC gets a chance to reject it.
const maxPayload = 1 << 24

// Typed decode failures, mirroring the snapshot package's contract.
var (
	// ErrBadMagic marks a file that is not a journal.
	ErrBadMagic = errors.New("journal: bad magic")
	// ErrTruncated marks a record whose bytes end before its frame does —
	// the torn tail of an interrupted append. Recover drops it; Read
	// reports it.
	ErrTruncated = errors.New("journal: truncated record")
	// ErrCorrupt marks a fully-present record whose CRC (or payload)
	// doesn't check out: damage, not interruption. Neither Read nor
	// Recover will silently skip it.
	ErrCorrupt = errors.New("journal: corrupt record")
)

// Record is one committed tick: the events applied (in the scenario op
// codec's textual form) and the RNG stream key their application drew
// from, so replay re-derives the identical stream.
type Record struct {
	Tick      uint64   `json:"tick"`
	StreamKey string   `json:"stream_key"`
	Events    []string `json:"events,omitempty"`
}

// Checkpoint marks a periodic snapshot: at Tick, the engine's full state
// was written to File (a flat snapshot, path relative to the journal's
// directory) with the given content digest. Recovery attaches the newest
// checkpoint whose file still matches its digest and replays the tail.
type Checkpoint struct {
	Tick   uint64 `json:"tick"`
	File   string `json:"file"`
	Digest string `json:"digest"`
}

// Contents is everything a read recovered from a journal file.
type Contents struct {
	// Header is the opaque genesis/configuration payload the creator
	// wrote; the tick engine owns its schema.
	Header []byte
	// Records are the committed ticks, in commit order.
	Records []Record
	// Checkpoints are the snapshot markers, in commit order.
	Checkpoints []Checkpoint
	// Truncated reports that Recover dropped a torn tail record.
	Truncated bool
}

// LastTick returns the highest committed tick (0 if none).
func (c *Contents) LastTick() uint64 {
	if len(c.Records) == 0 {
		return 0
	}
	return c.Records[len(c.Records)-1].Tick
}

// SyncPolicy names when the journal fsyncs — the durability guarantee
// spelled out in the package comment. The zero value is SyncCommit:
// durability is opt-out, never opt-in by accident.
type SyncPolicy int

const (
	// SyncCommit fsyncs on every Commit: an acked tick is on stable
	// storage before the caller proceeds.
	SyncCommit SyncPolicy = iota
	// SyncCheckpoint fsyncs only on checkpoint commits: a machine crash
	// can lose acked ticks back to the last checkpoint.
	SyncCheckpoint
	// SyncOff never fsyncs: a machine crash can lose any unflushed tail.
	SyncOff
)

var syncPolicyNames = map[SyncPolicy]string{
	SyncCommit:     "commit",
	SyncCheckpoint: "checkpoint",
	SyncOff:        "off",
}

func (p SyncPolicy) String() string {
	if s, ok := syncPolicyNames[p]; ok {
		return s
	}
	return fmt.Sprintf("syncpolicy(%d)", int(p))
}

// ParseSyncPolicy parses the -fsync flag form: commit, checkpoint, or
// off.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	for p, name := range syncPolicyNames {
		if s == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("journal: bad fsync policy %q (want commit|checkpoint|off)", s)
}

// Journal is an open journal file accepting appends.
type Journal struct {
	f       *os.File
	policy  SyncPolicy
	metrics *Metrics
}

// SetSyncPolicy sets when commits fsync. The default is SyncCommit.
func (j *Journal) SetSyncPolicy(p SyncPolicy) { j.policy = p }

// Policy returns the journal's sync policy.
func (j *Journal) Policy() SyncPolicy { return j.policy }

// Create writes a fresh journal at path — magic plus the header record —
// and returns it open for appends. It refuses to overwrite an existing
// file: a journal is an accumulating history, never a thing to clobber.
func Create(path string, header []byte) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: create: %w", err)
	}
	if len(header) > maxPayload {
		f.Close()
		return nil, fmt.Errorf("journal: header payload %d bytes exceeds cap %d", len(header), maxPayload)
	}
	// Magic and header go down in one write: a crash mid-create leaves a
	// torn tail Recover-style, never a magic-only stub.
	if _, err := f.Write(append([]byte(Magic), frame(kindHeader, header)...)); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: write header: %w", err)
	}
	return &Journal{f: f}, nil
}

// frame assembles one fully-framed record image.
func frame(kind byte, payload []byte) []byte {
	buf := make([]byte, 0, 1+4+len(payload)+4)
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// append commits one record with a single write, so an interrupted append
// can only ever leave a torn tail, never an interleaved or half-CRC'd
// record mid-file.
func (j *Journal) append(kind byte, payload []byte) error {
	if len(payload) > maxPayload {
		return fmt.Errorf("journal: record payload %d bytes exceeds cap %d", len(payload), maxPayload)
	}
	if _, err := j.f.Write(frame(kind, payload)); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	return nil
}

// Append commits one tick record.
func (j *Journal) Append(r Record) error {
	payload, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("journal: encode record: %w", err)
	}
	return j.append(kindTick, payload)
}

// AppendCheckpoint commits one checkpoint marker.
func (j *Journal) AppendCheckpoint(c Checkpoint) error {
	payload, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("journal: encode checkpoint: %w", err)
	}
	return j.append(kindCheckpoint, payload)
}

// Commit appends one tick record and, under SyncCommit, fsyncs before
// returning — the write the tick engine acks a tick on. Under the
// weaker policies it is exactly Append.
func (j *Journal) Commit(r Record) error {
	if err := j.Append(r); err != nil {
		return err
	}
	if j.policy == SyncCommit {
		if err := j.timedSync(); err != nil {
			return fmt.Errorf("journal: sync commit: %w", err)
		}
	}
	if j.metrics != nil {
		j.metrics.Commits.Inc()
	}
	return nil
}

// CommitCheckpoint appends one checkpoint marker and fsyncs unless the
// policy is SyncOff: checkpoints are the recovery anchors, so both
// SyncCommit and SyncCheckpoint make them durable.
func (j *Journal) CommitCheckpoint(c Checkpoint) error {
	if err := j.AppendCheckpoint(c); err != nil {
		return err
	}
	if j.policy != SyncOff {
		if err := j.timedSync(); err != nil {
			return fmt.Errorf("journal: sync checkpoint: %w", err)
		}
	}
	return nil
}

// Sync flushes the journal to stable storage.
func (j *Journal) Sync() error { return j.f.Sync() }

// Close closes the journal file.
func (j *Journal) Close() error { return j.f.Close() }

// Read decodes a journal strictly: any damage — bad magic, a torn tail, a
// flipped byte — is a typed error, and no prefix is returned with it.
func Read(path string) (*Contents, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("journal: read: %w", err)
	}
	c, _, err := parse(data)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Recover decodes the valid prefix of a possibly-interrupted journal,
// truncates a torn tail in place (marking Contents.Truncated), and
// returns the journal reopened for append. Only incompleteness is
// forgiven: a fully-framed record with a bad CRC is damage and fails with
// ErrCorrupt exactly as Read would.
func Recover(path string) (*Contents, *Journal, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: read: %w", err)
	}
	c, good, err := parse(data)
	switch {
	case err == nil:
	case errors.Is(err, ErrTruncated) && good > 0:
		if err := os.Truncate(path, good); err != nil {
			return nil, nil, fmt.Errorf("journal: truncate torn tail: %w", err)
		}
		c.Truncated = true
	default:
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: reopen: %w", err)
	}
	return c, &Journal{f: f}, nil
}

// parse walks the record stream. good is the byte offset of the last
// fully-valid record boundary — what Recover truncates to when the error
// is ErrTruncated.
func parse(data []byte) (c *Contents, good int64, err error) {
	if len(data) < len(Magic) {
		if string(data) == Magic[:len(data)] {
			return nil, 0, fmt.Errorf("%w: %d bytes is shorter than the magic", ErrTruncated, len(data))
		}
		return nil, 0, ErrBadMagic
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, 0, ErrBadMagic
	}
	c = &Contents{}
	off := len(Magic)
	for rec := 0; off < len(data); rec++ {
		if len(data)-off < 5 {
			return c, good, fmt.Errorf("%w: %d trailing bytes at offset %d", ErrTruncated, len(data)-off, off)
		}
		kind := data[off]
		n := binary.LittleEndian.Uint32(data[off+1 : off+5])
		if n > maxPayload {
			// A length this large is either a torn write or damage; either
			// way the declared frame extends past any plausible file.
			return c, good, fmt.Errorf("%w: record %d declares %d-byte payload at offset %d", ErrTruncated, rec, n, off)
		}
		total := 5 + int(n) + 4
		if len(data)-off < total {
			return c, good, fmt.Errorf("%w: record %d needs %d bytes, %d remain at offset %d", ErrTruncated, rec, total, len(data)-off, off)
		}
		body := data[off : off+5+int(n)]
		want := binary.LittleEndian.Uint32(data[off+5+int(n) : off+total])
		if crc32.ChecksumIEEE(body) != want {
			return nil, 0, fmt.Errorf("%w: record %d CRC mismatch at offset %d", ErrCorrupt, rec, off)
		}
		payload := body[5:]
		switch kind {
		case kindHeader:
			if rec != 0 {
				return nil, 0, fmt.Errorf("%w: header record %d is not first", ErrCorrupt, rec)
			}
			c.Header = append([]byte(nil), payload...)
		case kindTick:
			var r Record
			if err := json.Unmarshal(payload, &r); err != nil {
				return nil, 0, fmt.Errorf("%w: record %d payload: %v", ErrCorrupt, rec, err)
			}
			c.Records = append(c.Records, r)
		case kindCheckpoint:
			var cp Checkpoint
			if err := json.Unmarshal(payload, &cp); err != nil {
				return nil, 0, fmt.Errorf("%w: record %d payload: %v", ErrCorrupt, rec, err)
			}
			c.Checkpoints = append(c.Checkpoints, cp)
		default:
			return nil, 0, fmt.Errorf("%w: record %d has unknown kind %d", ErrCorrupt, rec, kind)
		}
		if rec == 0 && kind != kindHeader {
			return nil, 0, fmt.Errorf("%w: first record has kind %d, want header", ErrCorrupt, kind)
		}
		off += total
		good = int64(off)
	}
	if c.Header == nil {
		return c, good, fmt.Errorf("%w: no header record", ErrTruncated)
	}
	return c, good, nil
}
