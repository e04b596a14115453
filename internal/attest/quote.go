package attest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Quote is the one remotely verifiable attestation statement: a report
// (the enclave measurement, the challenger's nonce and report data in
// AppData) plus the platform's architecture, claimed defense
// configuration and TCB version, signed by the architecture's quoting key
// over its canonical body. The report's MAC is a local-attestation
// authenticator and is not part of a quote.
type Quote struct {
	Report
	Arch       string
	Config     string
	TCBVersion uint32
	Signature  []byte
}

// Wire-format limits. The format is strictly canonical: every field is
// length-prefixed, lengths are bounded, and DecodeQuote re-encodes what it
// parsed and requires byte equality with the input — the same discipline
// core.CellKey uses, and what makes quotes safe cache keys.
const (
	quoteMagic    = "IAQ1" // "intrust attestation quote, version 1"
	maxArchLen    = 64
	maxConfigLen  = 128
	maxNonceLen   = 64
	maxReportData = 1024
)

var (
	// ErrQuoteEncoding reports a malformed or non-canonical wire quote.
	// Its text is part of the bad-encoding verdicts /attest/verify and
	// `intrust attest verify` print, so it keeps the lifecycle service's
	// prefix.
	ErrQuoteEncoding = errors.New("attestsvc: malformed quote encoding")
)

// encode serializes the quote; with signed=true the signature is appended
// (the full wire format), with signed=false it yields the canonical body
// every quoting key signs.
func (q *Quote) encode(signed bool) ([]byte, error) {
	if len(q.Arch) == 0 || len(q.Arch) > maxArchLen {
		return nil, fmt.Errorf("%w: arch length %d", ErrQuoteEncoding, len(q.Arch))
	}
	if len(q.Config) > maxConfigLen {
		return nil, fmt.Errorf("%w: config length %d", ErrQuoteEncoding, len(q.Config))
	}
	if len(q.Nonce) > maxNonceLen {
		return nil, fmt.Errorf("%w: nonce length %d", ErrQuoteEncoding, len(q.Nonce))
	}
	if len(q.AppData) > maxReportData {
		return nil, fmt.Errorf("%w: report data length %d", ErrQuoteEncoding, len(q.AppData))
	}
	var b bytes.Buffer
	b.WriteString(quoteMagic)
	b.WriteByte(byte(len(q.Arch)))
	b.WriteString(q.Arch)
	b.Write(q.Measurement[:])
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], q.TCBVersion)
	b.Write(u32[:])
	b.WriteByte(byte(len(q.Config)))
	b.WriteString(q.Config)
	b.WriteByte(byte(len(q.Nonce)))
	b.Write(q.Nonce)
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(len(q.AppData)))
	b.Write(u16[:])
	b.Write(q.AppData)
	if signed {
		if len(q.Signature) != signatureSize {
			return nil, fmt.Errorf("%w: signature length %d", ErrQuoteEncoding, len(q.Signature))
		}
		b.Write(q.Signature)
	}
	return b.Bytes(), nil
}

// Encode serializes the signed quote into its canonical wire format.
func (q *Quote) Encode() ([]byte, error) { return q.encode(true) }

// quoteReader is a bounds-checked cursor over wire bytes.
type quoteReader struct {
	b   []byte
	off int
}

func (r *quoteReader) take(n int) ([]byte, bool) {
	if n < 0 || r.off+n > len(r.b) {
		return nil, false
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out, true
}

func (r *quoteReader) byte1() (byte, bool) {
	b, ok := r.take(1)
	if !ok {
		return 0, false
	}
	return b[0], true
}

// DecodeQuote parses the canonical wire format. It rejects truncated
// input, trailing bytes, out-of-bound lengths, and any encoding that does
// not round-trip byte-identically — only canonical quotes decode.
func DecodeQuote(wire []byte) (*Quote, error) {
	r := &quoteReader{b: wire}
	magic, ok := r.take(len(quoteMagic))
	if !ok || string(magic) != quoteMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrQuoteEncoding)
	}
	archLen, ok := r.byte1()
	if !ok || archLen == 0 || int(archLen) > maxArchLen {
		return nil, fmt.Errorf("%w: arch length", ErrQuoteEncoding)
	}
	arch, ok := r.take(int(archLen))
	if !ok {
		return nil, fmt.Errorf("%w: arch", ErrQuoteEncoding)
	}
	mraw, ok := r.take(len(Measurement{}))
	if !ok {
		return nil, fmt.Errorf("%w: measurement", ErrQuoteEncoding)
	}
	tcbRaw, ok := r.take(4)
	if !ok {
		return nil, fmt.Errorf("%w: tcb version", ErrQuoteEncoding)
	}
	cfgLen, ok := r.byte1()
	if !ok || int(cfgLen) > maxConfigLen {
		return nil, fmt.Errorf("%w: config length", ErrQuoteEncoding)
	}
	cfg, ok := r.take(int(cfgLen))
	if !ok {
		return nil, fmt.Errorf("%w: config", ErrQuoteEncoding)
	}
	nonceLen, ok := r.byte1()
	if !ok || int(nonceLen) > maxNonceLen {
		return nil, fmt.Errorf("%w: nonce length", ErrQuoteEncoding)
	}
	nonce, ok := r.take(int(nonceLen))
	if !ok {
		return nil, fmt.Errorf("%w: nonce", ErrQuoteEncoding)
	}
	rdLenRaw, ok := r.take(2)
	if !ok {
		return nil, fmt.Errorf("%w: report data length", ErrQuoteEncoding)
	}
	rdLen := int(binary.LittleEndian.Uint16(rdLenRaw))
	if rdLen > maxReportData {
		return nil, fmt.Errorf("%w: report data length %d", ErrQuoteEncoding, rdLen)
	}
	rd, ok := r.take(rdLen)
	if !ok {
		return nil, fmt.Errorf("%w: report data", ErrQuoteEncoding)
	}
	sig, ok := r.take(signatureSize)
	if !ok {
		return nil, fmt.Errorf("%w: signature", ErrQuoteEncoding)
	}
	if r.off != len(wire) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrQuoteEncoding, len(wire)-r.off)
	}
	q := &Quote{
		Report:     Report{Nonce: append([]byte(nil), nonce...), AppData: append([]byte(nil), rd...)},
		Arch:       string(arch),
		Config:     string(cfg),
		TCBVersion: binary.LittleEndian.Uint32(tcbRaw),
		Signature:  append([]byte(nil), sig...),
	}
	copy(q.Measurement[:], mraw)
	reenc, err := q.Encode()
	if err != nil || !bytes.Equal(reenc, wire) {
		return nil, fmt.Errorf("%w: not canonical", ErrQuoteEncoding)
	}
	return q, nil
}
