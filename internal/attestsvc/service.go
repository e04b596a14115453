package attestsvc

import (
	"sync"

	"github.com/intrust-sim/intrust/internal/attest"
	"github.com/intrust-sim/intrust/internal/platform"
)

// Service ties the lifecycle together for the CLI and the serve tier:
// one platform fuse and its per-architecture quoting keys, one verifier
// over the canonical policy, and the current sweep-driven revocation
// state. The policy leaves freshness off, so a verdict is a pure function
// of (quote, nonce, revocation state) — the property the serve tier's
// response cache depends on. Protocol-level freshness lives in
// per-session verifiers (see the quote-replay scenario).
type Service struct {
	keys map[string]*attest.QuotingKey
	ver  *attest.Verifier

	mu  sync.RWMutex
	rev *Revocations
}

// NewService builds a service over a platform fuse (platform.FuseFromSeed
// names one by seed) with nothing revoked.
func NewService(fuse [32]byte) *Service {
	s := &Service{keys: make(map[string]*attest.QuotingKey, len(platform.Architectures)), ver: attest.NewVerifier(attest.Policy{})}
	for _, arch := range platform.Architectures {
		s.keys[arch] = attest.QuotingKeyFor(fuse, arch)
		s.ver.Trust(arch, s.keys[arch].Public())
	}
	s.SetRevocations(nil)
	return s
}

// SetRevocations installs sweep-driven revocation state and rebuilds the
// verification policy from it.
func (s *Service) SetRevocations(rev *Revocations) {
	if rev == nil {
		rev = Revoke(nil)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rev = rev
	s.ver.SetPolicy(CanonicalPolicy(rev))
}

// Revocations returns the current revocation state.
func (s *Service) Revocations() *Revocations {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rev
}

// Quote builds the canonical image for (arch, config, tcb) and signs a
// quote over it with the arch's quoting key. Deterministic: same
// arguments, same bytes.
func (s *Service) Quote(arch, config string, tcb uint32, nonce, reportData []byte) (*attest.Quote, error) {
	im, err := BuildImage(arch, config, tcb)
	if err != nil {
		return nil, err
	}
	q := im.Quote(nonce, reportData)
	if err := s.keys[arch].Sign(q); err != nil {
		return nil, err
	}
	return q, nil
}

// Verify checks a wire quote against the canonical policy under the
// current revocation state.
func (s *Service) Verify(wire, challengeNonce []byte) attest.Verdict {
	return s.ver.Verify(wire, challengeNonce)
}

// Policy returns the current verification policy.
func (s *Service) Policy() attest.Policy { return s.ver.Policy() }
