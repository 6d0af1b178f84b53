// Package checkpoint is the file format under instaplcd's -checkpoint
// and -resume. The simulator schedules Go closures, which cannot be
// serialized, so a checkpoint is replay-anchored: it holds the run spec
// (the configuration the run was built from, encoded by the package
// that owns it), the simulated instant it was taken at, and a Digest of
// all live state at that instant. A restore rebuilds the run from the
// spec, replays deterministically to the instant and compares digests;
// a mismatch is a *DivergenceError instead of a resumed run the original
// never had. What the digest folds per subsystem is listed in DESIGN.md
// ("Checkpoint & replay").
//
// A checkpoint file is input from outside the program. Read bounds how
// much it reads, checks a trailing content digest before it interprets
// anything, refuses every other format version, and requires the spec
// length to account for every byte, so an accepted file is exactly what
// Write would produce from what Read returns.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// magic identifies a steelnet checkpoint file.
var magic = [8]byte{'S', 'T', 'E', 'E', 'L', 'C', 'K', 'P'}

// FormatVersion is the current encoding version. Bump it ONLY with a
// migration path: readers reject any other version, and the golden
// corpus under testdata/ pins the byte-level encoding of every
// experiment's checkpoint against accidental drift.
//
// History:
//
//	1: initial format.
//	2: in-band telemetry. Scenario codecs gained the INT enable bit
//	   (instaplc, reflection, mltopo) and chaos cells persist
//	   INTObservations; state digests fold INT counters (per-port and
//	   per-switch INTDrops, host INT sequence numbers), so v1 digests
//	   no longer verify against replayed v2 state.
//	3: sharded execution. Every engine's state digest now begins with a
//	   shard-layout prefix (shard index, shard count, clock), shard
//	   groups fold per-shard digests in fixed shard order plus any
//	   messages held in window outboxes, and the campus experiment kind
//	   was added. v2 digests no longer verify against replayed v3
//	   state; there is no in-place migration — rerun the experiment and
//	   checkpoint again under v3.
//	4: the config is a JSON run spec; no sections, no kind. The layout
//	   is magic, version, u32 spec length, spec, instant, state digest,
//	   content digest. State digests are unchanged from v3.
const FormatVersion = 4

// maxSize bounds a checkpoint file, far above any run spec: Read stops
// there instead of reading an endless input until memory runs out.
const maxSize = 1 << 20

// headerLen is magic, version and spec length; tailLen is the instant,
// the state digest and the content digest after the spec.
const (
	headerLen = len(magic) + 4 + 4
	tailLen   = 8 + 8 + 8
)

// ErrVersion wraps version-mismatch failures for errors.Is.
var ErrVersion = errors.New("checkpoint: format version mismatch")

// ErrCorrupt wraps integrity failures (bad magic, bad trailing digest,
// a spec length that does not fit, an oversized file, a spec its owner
// refuses) for errors.Is.
var ErrCorrupt = errors.New("checkpoint: corrupt file")

// contentDigest is the trailer sealing everything before it.
func contentDigest(b []byte) uint64 {
	d := NewDigest()
	d.Bytes(b)
	return d.Sum()
}

// Write writes a checkpoint of a run to w: its spec, the instant at (in
// nanoseconds) and the state digest at that instant.
func Write(w io.Writer, spec []byte, at int64, digest uint64) error {
	if len(spec) > maxSize-headerLen-tailLen {
		return fmt.Errorf("checkpoint: a %d-byte run spec does not fit in a %d-byte file", len(spec), maxSize)
	}
	le := binary.LittleEndian
	b := make([]byte, 0, headerLen+len(spec)+tailLen)
	b = append(b, magic[:]...)
	b = le.AppendUint32(b, FormatVersion)
	b = le.AppendUint32(b, uint32(len(spec)))
	b = append(b, spec...)
	b = le.AppendUint64(b, uint64(at))
	b = le.AppendUint64(b, digest)
	b = le.AppendUint64(b, contentDigest(b))
	_, err := w.Write(b)
	return err
}

// Read decodes a checkpoint from r, verifying size, magic, the trailing
// content digest and the version, in that order. A version mismatch is
// rejected with explicit migration instructions — resuming across
// encodings would silently desynchronize the restored state from the
// recorded digest. The spec is returned as written; its owner decodes it.
func Read(r io.Reader) (spec []byte, at int64, digest uint64, err error) {
	raw, err := io.ReadAll(io.LimitReader(r, maxSize+1))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("checkpoint: read: %w", err)
	}
	switch {
	case len(raw) > maxSize:
		return nil, 0, 0, fmt.Errorf("%w: more than %d bytes, past any checkpoint", ErrCorrupt, maxSize)
	case len(raw) < headerLen+tailLen:
		return nil, 0, 0, fmt.Errorf("%w: %d bytes is shorter than any checkpoint", ErrCorrupt, len(raw))
	case !bytes.Equal(raw[:len(magic)], magic[:]):
		return nil, 0, 0, fmt.Errorf("%w: bad magic %q", ErrCorrupt, raw[:len(magic)])
	}
	le := binary.LittleEndian
	body := raw[:len(raw)-8]
	if got, want := le.Uint64(raw[len(body):]), contentDigest(body); got != want {
		return nil, 0, 0, fmt.Errorf("%w: content digest %#x does not match trailer %#x (truncated or modified file)",
			ErrCorrupt, want, got)
	}
	if v := le.Uint32(raw[len(magic):]); v != FormatVersion {
		return nil, 0, 0, fmt.Errorf("%w: file is version %d, this build reads version %d.\n"+
			"Migration: re-create the checkpoint with a build matching its version, let the run finish\n"+
			"(or resume and re-checkpoint), then switch builds. If this file is a golden corpus entry\n"+
			"under internal/checkpoint/testdata/, the encoding drifted without a FormatVersion bump:\n"+
			"restore the old encoding, or bump FormatVersion, document the change in DESIGN.md\n"+
			"(\"Checkpoint & replay\"), and regenerate the corpus with `go test ./internal/checkpoint -run TestGolden -update`.",
			ErrVersion, v, FormatVersion)
	}
	n := int(le.Uint32(raw[len(magic)+4:]))
	if have := len(raw) - headerLen - tailLen; n != have {
		return nil, 0, 0, fmt.Errorf("%w: spec length %d, but %d bytes lie between header and tail", ErrCorrupt, n, have)
	}
	tail := raw[headerLen+n:]
	return raw[headerLen : headerLen+n], int64(le.Uint64(tail)), le.Uint64(tail[8:]), nil
}

// WriteFileAtomic replaces path with whatever write produces: the bytes
// go to a temp file in path's directory, which is closed and renamed
// over path only when write and Close both succeeded. On any error the
// temp file is removed and path keeps its previous contents — a crash or
// a failed save never destroys the only checkpoint.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = write(tmp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// DivergenceError reports a restore whose replay did not reproduce the
// recorded state digest — the checkpoint and the current build (or
// configuration) disagree about what happened before the snapshot.
type DivergenceError struct {
	At       int64
	Recorded uint64
	Replayed uint64
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("checkpoint: replay diverged at t=%dns: recorded state digest %#x, replayed %#x "+
		"(the binary or configuration no longer reproduces the checkpointed run)",
		e.At, e.Recorded, e.Replayed)
}
