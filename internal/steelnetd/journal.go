package steelnetd

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"steelnet/internal/enc"
)

// Journal is the gateway's run-lifecycle audit log: every state
// transition (created, started, stopped, done, failed) and
// every rule firing appends one JSONL record.
//
// Determinism is the contract: records are sequenced *per run*, not
// globally, and buffered per run, so concurrent runs never interleave
// inside each other's logs. WriteLog dumps the runs sorted by id —
// which makes the full journal a pure function of the hosted run
// specs, byte-identical across reruns and -max-concurrent settings.
// The golden tests pin exactly that.
//
// The append path allocates nothing steady-state: records render with
// strconv appends into a per-run byte buffer whose doubling growth
// amortizes to zero per record.
type Journal struct {
	mu    sync.Mutex
	runs  map[string]*journalLog
	total atomic.Uint64
}

// journalLog is one run's record buffer and sequence counter.
type journalLog struct {
	buf []byte
	seq uint64
}

// Journal event names. Firings record the fired rule in "detail".
const (
	JournalCreated = "created"
	JournalStarted = "started"
	JournalStopped = "stopped"
	JournalDone    = "done"
	JournalFailed  = "failed"
	JournalFiring  = "firing"
)

// NewJournal returns an empty journal.
func NewJournal() *Journal {
	return &Journal{runs: map[string]*journalLog{}}
}

// Record appends one lifecycle record for run:
//
//	{"run":"mill","seq":3,"event":"stopped","sim_ns":150000000}
func (j *Journal) Record(run, event string, simNS int64) {
	j.record(run, event, simNS, "")
}

// RecordDetail appends one record with a detail field — rule firings
// record the fired rule's spec, failures the error:
//
//	{"run":"mill","seq":4,"event":"firing","sim_ns":…,"detail":"loss:*>0.1->kafka:alerts"}
func (j *Journal) RecordDetail(run, event string, simNS int64, detail string) {
	j.record(run, event, simNS, detail)
}

func (j *Journal) record(run, event string, simNS int64, detail string) {
	j.mu.Lock()
	l := j.runs[run]
	if l == nil {
		l = &journalLog{}
		j.runs[run] = l
	}
	l.seq++
	b := l.buf
	b = append(b, `{"run":`...)
	b = enc.AppendString(b, run)
	b = append(b, `,"seq":`...)
	b = enc.AppendUint(b, l.seq)
	b = append(b, `,"event":`...)
	b = enc.AppendString(b, event)
	b = append(b, `,"sim_ns":`...)
	b = enc.AppendInt(b, simNS)
	if detail != "" {
		b = append(b, `,"detail":`...)
		b = enc.AppendString(b, detail)
	}
	b = append(b, "}\n"...)
	l.buf = b
	j.mu.Unlock()
	j.total.Add(1)
}

// Total returns the number of records appended so far.
func (j *Journal) Total() uint64 { return j.total.Load() }

// Seq returns the named run's latest sequence number (0 = no records).
func (j *Journal) Seq(run string) uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if l := j.runs[run]; l != nil {
		return l.seq
	}
	return 0
}

// WriteLog dumps the journal as JSONL, runs sorted by id, each run's
// records in sequence order — the canonical deterministic rendering.
func (j *Journal) WriteLog(w io.Writer) error {
	j.mu.Lock()
	ids := make([]string, 0, len(j.runs))
	for id := range j.runs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	bufs := make([][]byte, len(ids))
	for i, id := range ids {
		// Snapshot the buffer reference; appenders replace l.buf on
		// growth, so written bytes are never mutated under us.
		bufs[i] = j.runs[id].buf
	}
	j.mu.Unlock()
	for _, b := range bufs {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}
