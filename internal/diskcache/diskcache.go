// Package diskcache is the persistent second tier under the serve
// layer's in-memory result cache: a directory of tamper-evident,
// crash-safe files mapping a canonical content address (the cell-key
// encoding from internal/core) to the rendered body computed for it.
//
// The engine's determinism guarantee is what makes a disk tier sound
// with zero invalidation logic — a cell body is a pure function of its
// canonical address, so an entry that authenticates is exactly what a
// fresh computation would produce, no matter how old it is or which
// process wrote it. The only failure modes left are therefore storage
// failures (torn writes, truncation, bit rot) and hostile modification
// (cache poisoning), and the format treats both identically: every
// entry is an authenticated envelope (HMAC-SHA256 over a versioned
// header, the address echo, and the body, keyed from the store secret),
// and any file that fails authentication — or decodes to a different
// address than the one requested — reads as a miss and is quarantined,
// never served and never an error. A poisoned cache can slow the
// service down; it cannot make it lie.
//
// Writes are crash-safe: the envelope lands in a private temp file,
// is fsynced, and is atomically renamed over the final path, so a
// reader (or a restart) sees either the complete old entry, the
// complete new entry, or nothing — never a torn write at the final
// path. Stale temp files from a crashed writer are swept on Open.
package diskcache

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"github.com/intrust-sim/intrust/internal/fault"
)

// Envelope layout (all integers big-endian):
//
//	offset 0: magic "IDC" + version byte ('1')
//	offset 4: addrLen uint32
//	offset 8: addr (the canonical content address, echoed verbatim)
//	        : bodyLen uint32
//	        : body
//	        : mac — HMAC-SHA256 over every preceding byte
//
// The version byte is authenticated (a downgraded header fails the
// MAC) and checked before anything else, so a format bump can never
// be misread as the old layout. The address echo makes cross-key
// aliasing detectable: copying a valid envelope onto another address's
// path authenticates but echoes the wrong address, and Get rejects it.
// Decode rejects trailing bytes, so exactly one wire string exists per
// (addr, body) pair and a decoded envelope re-encodes byte-identically.
const (
	envMagic   = "IDC"
	envVersion = '1'

	headerLen = 4 + 4 // magic+version, addrLen
	macLen    = sha256.Size

	// maxAddrLen / maxBodyLen bound the declared lengths before any
	// allocation, so a corrupt header cannot ask for gigabytes.
	maxAddrLen = 1 << 16
	maxBodyLen = 1 << 30
)

// Envelope decode failures. All of them read as a miss; they are
// distinguished so tests (and the quarantine log line, if one is ever
// added) can tell storage rot from format drift.
var (
	// ErrFormat covers structural failures: short files, bad magic,
	// out-of-bound lengths, truncation, trailing bytes.
	ErrFormat = errors.New("diskcache: malformed envelope")
	// ErrVersion is a well-formed envelope of a different format
	// version (stale cache from a future or past layout).
	ErrVersion = errors.New("diskcache: unsupported envelope version")
	// ErrAuth is a structurally valid envelope whose MAC does not
	// verify under this store's key: corruption or tampering.
	ErrAuth = errors.New("diskcache: envelope failed authentication")
	// ErrAddrMismatch is an authentic envelope echoing a different
	// address than the one it was read for (cross-key aliasing).
	ErrAddrMismatch = errors.New("diskcache: envelope address mismatch")
)

// deriveMACKey expands the operator-supplied secret into the HMAC key
// deterministically, so every process pointed at the same secret (and
// the same directory) reads the same store. The fixed label
// domain-separates this use from any other HMAC of the same secret.
func deriveMACKey(secret string) []byte {
	h := hmac.New(sha256.New, []byte("intrust-diskcache-mac-v1"))
	h.Write([]byte(secret))
	return h.Sum(nil)
}

// encode renders the authenticated envelope for (addr, body).
func encode(macKey []byte, addr string, body []byte) []byte {
	n := headerLen + len(addr) + 4 + len(body) + macLen
	env := make([]byte, 0, n)
	env = append(env, envMagic...)
	env = append(env, envVersion)
	env = binary.BigEndian.AppendUint32(env, uint32(len(addr)))
	env = append(env, addr...)
	env = binary.BigEndian.AppendUint32(env, uint32(len(body)))
	env = append(env, body...)
	mac := hmac.New(sha256.New, macKey)
	mac.Write(env)
	return mac.Sum(env)
}

// decode parses and authenticates an envelope, returning the echoed
// address and the body. It accepts exactly the strings encode produces:
// any accepted envelope re-encodes byte-identically (the fuzz-pinned
// canonical-form invariant).
func decode(macKey, env []byte) (addr string, body []byte, err error) {
	if len(env) < headerLen+4+macLen {
		return "", nil, fmt.Errorf("%w: %d bytes is shorter than an empty envelope", ErrFormat, len(env))
	}
	if string(env[:3]) != envMagic {
		return "", nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	if env[3] != envVersion {
		return "", nil, fmt.Errorf("%w: version %q (want %q)", ErrVersion, env[3], envVersion)
	}
	addrLen := binary.BigEndian.Uint32(env[4:8])
	if addrLen > maxAddrLen || headerLen+int(addrLen)+4+macLen > len(env) {
		return "", nil, fmt.Errorf("%w: address length %d out of bounds", ErrFormat, addrLen)
	}
	bodyOff := headerLen + int(addrLen) + 4
	bodyLen := binary.BigEndian.Uint32(env[bodyOff-4 : bodyOff])
	if bodyLen > maxBodyLen || bodyOff+int(bodyLen)+macLen != len(env) {
		return "", nil, fmt.Errorf("%w: body length %d does not match envelope size %d", ErrFormat, bodyLen, len(env))
	}
	macOff := bodyOff + int(bodyLen)
	mac := hmac.New(sha256.New, macKey)
	mac.Write(env[:macOff])
	if !hmac.Equal(mac.Sum(nil), env[macOff:]) {
		return "", nil, ErrAuth
	}
	return string(env[headerLen : headerLen+int(addrLen)]), env[bodyOff:macOff], nil
}

// Counters is a snapshot of a store's traffic accounting.
type Counters struct {
	// Hits are reads that returned an authenticated body.
	Hits int64
	// Misses are reads of addresses with no file on disk.
	Misses int64
	// Rejects are reads that found a file but refused it — failed
	// authentication, truncation, torn or stale format, or a wrong
	// address echo. Every reject also quarantined the file.
	Rejects int64
	// Writes are entries durably persisted.
	Writes int64
	// IOErrors are reads or writes that failed at the storage layer
	// (real or injected) — the disk-health signal, distinct from
	// Rejects (bad bytes) and Misses (no entry).
	IOErrors int64
}

// Store is one on-disk cache directory under one secret. It is safe
// for concurrent use by any number of goroutines (and, thanks to the
// atomic-rename write protocol, by concurrent processes sharing the
// directory and secret).
type Store struct {
	dir    string
	macKey []byte

	// faults is the optional chaos seam (nil in production): injected
	// read/write IO errors and at-rest corruption, armed by the fault
	// plane's seeded schedules. Set it before the store sees traffic.
	faults *fault.Plane

	hits    atomic.Int64
	misses  atomic.Int64
	rejects atomic.Int64
	writes  atomic.Int64
	ioErrs  atomic.Int64
}

// Open creates (if needed) and opens the cache directory. Leftover
// temp files from a crashed writer are swept; committed entries are
// never touched here — they authenticate (or quarantine) lazily on
// first read.
func Open(dir, secret string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("diskcache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	if stale, err := filepath.Glob(filepath.Join(dir, "put-*.tmp")); err == nil {
		for _, f := range stale {
			os.Remove(f)
		}
	}
	return &Store{dir: dir, macKey: deriveMACKey(secret)}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Fault-point names this store probes (see internal/fault's catalog).
const (
	// FaultRead injects an IO error (and/or latency) on entry reads.
	FaultRead = "disk.read"
	// FaultWrite injects an IO error (and/or latency) on entry writes.
	FaultWrite = "disk.write"
	// FaultCorrupt flips a byte of a read envelope before decode —
	// at-rest corruption, exercising the authenticate-and-quarantine
	// path.
	FaultCorrupt = "disk.corrupt"
)

// SetFaults installs the chaos seam (nil disables it). Call it before
// the store sees traffic; the plane itself is concurrency-safe but the
// pointer swap is not synchronized against in-flight operations.
func (s *Store) SetFaults(p *fault.Plane) { s.faults = p }

// path maps an address to its file: a digest filename, so addresses of
// any length and alphabet are valid and no address bytes leak into
// directory listings.
func (s *Store) path(addr string) string {
	sum := sha256.Sum256([]byte(addr))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+".cell")
}

// Get reads the body stored under addr. Every failure mode — no file,
// truncated or torn file, failed authentication, stale version, wrong
// address echo, an IO error — is a miss; files that were present but
// refused are additionally quarantined so the next read of the address
// is a clean miss rather than a repeated decode of known-bad bytes.
// Get is GetE without the storage-health signal; the program reads
// through GetE, and Get remains for the perfbench diskcache probe.
func (s *Store) Get(addr string) ([]byte, bool) {
	body, ok, _ := s.GetE(addr)
	return body, ok
}

// GetE is Get with the storage-health signal surfaced: ioErr is non-nil
// exactly when the read failed for a reason other than the entry not
// existing (a real or injected IO fault). The body contract is
// unchanged — an IO error still reads as a miss, never a served error —
// but callers running a circuit breaker over the disk tier (the serve
// layer) need to tell "nothing there" from "the disk is failing".
func (s *Store) GetE(addr string) (body []byte, ok bool, ioErr error) {
	path := s.path(addr)
	if err := s.faults.Fail(FaultRead); err != nil {
		s.ioErrs.Add(1)
		s.misses.Add(1)
		return nil, false, err
	}
	env, err := os.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		s.ioErrs.Add(1)
		return nil, false, err
	}
	if s.faults.Fire(FaultCorrupt) && len(env) > 0 {
		// At-rest rot: flip one byte of what the disk returned. The
		// envelope now genuinely fails authentication, so the normal
		// reject path quarantines the (actually intact) file and the
		// caller recomputes — never a served corrupt body.
		env[len(env)/2] ^= 0xFF
	}
	gotAddr, body, err := decode(s.macKey, env)
	if err == nil && gotAddr != addr {
		err = fmt.Errorf("%w: entry for %q read as %q", ErrAddrMismatch, gotAddr, addr)
	}
	if err != nil {
		s.quarantine(path)
		s.rejects.Add(1)
		return nil, false, nil
	}
	s.hits.Add(1)
	return body, true, nil
}

// Has reports whether a file exists for addr without reading or
// authenticating it — a cheap existence probe; only Get can promise
// the entry is servable.
func (s *Store) Has(addr string) bool {
	_, err := os.Stat(s.path(addr))
	return err == nil
}

// quarantine moves a refused file aside (same name, ".bad" suffix) so
// it stays available for inspection but is out of the read path. A
// second quarantine of the same address replaces the first.
func (s *Store) quarantine(path string) {
	if err := os.Rename(path, path+".bad"); err != nil {
		// Rename can only really fail here if the file vanished (a
		// concurrent quarantine) or the directory is read-only; either
		// way removing is the best remaining effort.
		os.Remove(path)
	}
}

// Put durably persists body under addr: envelope into a private temp
// file, fsync, atomic rename over the final path, directory fsync. A
// crash at any point leaves either the previous entry or the complete
// new one at the final path — never a torn write.
func (s *Store) Put(addr string, body []byte) error {
	if err := s.faults.Fail(FaultWrite); err != nil {
		s.ioErrs.Add(1)
		return fmt.Errorf("diskcache: %w", err)
	}
	env := encode(s.macKey, addr, body)
	f, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		s.ioErrs.Add(1)
		return fmt.Errorf("diskcache: %w", err)
	}
	tmp := f.Name()
	if _, err = f.Write(env); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, s.path(addr))
	}
	if err != nil {
		os.Remove(tmp)
		s.ioErrs.Add(1)
		return fmt.Errorf("diskcache: %w", err)
	}
	s.syncDir()
	s.writes.Add(1)
	return nil
}

// syncDir fsyncs the cache directory so a committed rename survives
// power loss. Best-effort: some filesystems refuse directory fsync,
// and the rename itself already ordered correctly against the data
// sync on the ones that matter.
func (s *Store) syncDir() {
	d, err := os.Open(s.dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// Counters returns a snapshot of the store's traffic accounting.
func (s *Store) Counters() Counters {
	return Counters{
		Hits:     s.hits.Load(),
		Misses:   s.misses.Load(),
		Rejects:  s.rejects.Load(),
		Writes:   s.writes.Load(),
		IOErrors: s.ioErrs.Load(),
	}
}
