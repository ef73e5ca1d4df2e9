// Package wire defines the v1 binary protocol the network front-end speaks:
// length-prefixed frames over a byte stream (TCP in production, loopback and
// in-memory pipes in tests), designed so a remote client can reach the full
// semantic surface of the sharded store — plain and detectable operations,
// durable-vs-buffered write flags, cross-shard batches, snapshot scans, and
// the Sync barrier.
//
// Frame layout (little-endian, fixed 36-byte header, CRC-guarded):
//
//	off  size  field
//	0    2     magic "kv"
//	2    1     version (1)
//	3    1     opcode (response bit 0x80 echoes the request opcode)
//	4    4     flags: low byte = status on responses; option bits above
//	8    8     request id (echoed verbatim; the per-client seq for
//	           detectable operations)
//	16   8     aux (op-specific: client id on HELLO, scan limit / count,
//	           ack watermark, commit epoch on write responses)
//	24   4     key length in bytes
//	28   4     value length in bytes
//	32   4     CRC-32 (IEEE) over bytes 0..32
//	36   ...   key bytes, then value bytes
//
// The header CRC turns line noise and desynchronized streams into typed
// errors instead of absurd allocations: a reader validates magic, version,
// opcode, CRC, and both length fields against its Limits before it reads (or
// allocates) a single payload byte. Decoding therefore never over-reads and
// never panics on adversarial input — the FuzzDecodeFrame property.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Protocol constants.
const (
	Magic0  = 'k'
	Magic1  = 'v'
	Version = 1

	// HeaderSize is the fixed frame-header length in bytes.
	HeaderSize = 36
)

// Op is a frame opcode. Responses echo the request opcode with RespBit set.
type Op uint8

const (
	OpHello       Op = 1  // aux = client id; response aux = server mode bits
	OpGet         Op = 2  // key; response value = stored value
	OpPut         Op = 3  // key, value; response aux = commit epoch
	OpDelete      Op = 4  // key; response aux = commit epoch, status reports presence
	OpWrite       Op = 5  // value = batch payload; response aux = commit epoch
	OpScan        Op = 6  // key = start key, aux = max pairs; response value = pairs
	OpSync        Op = 7  // durability barrier; response after watermark covers writes
	OpWasApplied  Op = 8  // reqid = probed seq; status OK/NotFound
	OpAck         Op = 9  // aux = acked watermark
	OpStats       Op = 10 // response value = JSON server stats
	OpDetectStats Op = 11 // response value = 24-byte (receipts, maxSeq, acked)

	// RespBit marks a frame as the response to the request opcode below it.
	RespBit Op = 0x80

	maxOp = OpDetectStats
)

// IsResponse reports whether the opcode carries the response bit.
func (o Op) IsResponse() bool { return o&RespBit != 0 }

// Base strips the response bit.
func (o Op) Base() Op { return o &^ RespBit }

func (o Op) String() string {
	names := [...]string{
		OpHello: "HELLO", OpGet: "GET", OpPut: "PUT", OpDelete: "DELETE",
		OpWrite: "WRITEBATCH", OpScan: "SCAN", OpSync: "SYNC",
		OpWasApplied: "WASAPPLIED", OpAck: "ACK", OpStats: "STATS",
		OpDetectStats: "DETECTSTATS",
	}
	b := o.Base()
	if int(b) < len(names) && names[b] != "" {
		if o.IsResponse() {
			return names[b] + "-RESP"
		}
		return names[b]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Flag bits (the low byte of flags is the response status).
const (
	// FlagDurable asks the server not to respond until the write is durable
	// (a per-request WriteOptions.Sync in buffered mode; a no-op on a
	// synchronous server, which is always durable on commit).
	FlagDurable uint32 = 1 << 8
	// FlagDetectable routes the write through the exactly-once path: the
	// request id is the per-client sequence number and the connection must
	// have sent HELLO with a nonzero client id.
	FlagDetectable uint32 = 1 << 9

	flagsKnown = FlagDurable | FlagDetectable | 0xff
)

// Response status codes (low byte of flags).
const (
	StatusOK       uint8 = 0
	StatusNotFound uint8 = 1 // GET/WASAPPLIED miss; DELETE of an absent key
	StatusDup      uint8 = 2 // detectable write deduplicated by its receipt
	StatusErr      uint8 = 3 // server-side failure; value holds the message
)

// Server mode bits (aux of the HELLO response).
const (
	ModeBuffered uint64 = 1 << 0 // relaxed durability: writes need Sync/FlagDurable
)

// StatsReset, set in a STATS request's aux, asks the server to reset its
// counters and histograms after taking the returned snapshot — the load
// harness's cell boundary.
const StatsReset uint64 = 1 << 0

// Limits bounds what a decoder will accept before reading payload bytes.
type Limits struct {
	MaxKey int
	MaxVal int
}

// DefaultLimits is generous enough for every workload in this repo while
// keeping a hostile length field from allocating gigabytes.
var DefaultLimits = Limits{MaxKey: 1 << 16, MaxVal: 1 << 24}

// Frame is one decoded protocol frame. Key and Val alias the decode
// destination's scratch buffers when ReadFrameInto is used — they are valid
// only until the next read on that decoder (see the scratch-reuse contract
// in internal/server: every consumer that outlives the read must copy, and
// WriteBatch assembly does so by construction).
type Frame struct {
	Op    Op
	Flags uint32
	ReqID uint64
	Aux   uint64
	Key   []byte
	Val   []byte
}

// Status returns the response status byte.
func (f *Frame) Status() uint8 { return uint8(f.Flags & 0xff) }

var crcTable = crc32.IEEETable

// putHeader encodes the frame header (with CRC) into hdr.
func (f *Frame) putHeader(hdr *[HeaderSize]byte) {
	hdr[0], hdr[1], hdr[2], hdr[3] = Magic0, Magic1, Version, byte(f.Op)
	binary.LittleEndian.PutUint32(hdr[4:], f.Flags)
	binary.LittleEndian.PutUint64(hdr[8:], f.ReqID)
	binary.LittleEndian.PutUint64(hdr[16:], f.Aux)
	binary.LittleEndian.PutUint32(hdr[24:], uint32(len(f.Key)))
	binary.LittleEndian.PutUint32(hdr[28:], uint32(len(f.Val)))
	binary.LittleEndian.PutUint32(hdr[32:], crc32.Checksum(hdr[:32], crcTable))
}

// AppendFrame appends the encoded frame to dst and returns the extended
// slice. It never fails: encoding is total for any Frame whose key and value
// fit in uint32 lengths (enforced by the caller's Limits on the read side).
func AppendFrame(dst []byte, f *Frame) []byte {
	var hdr [HeaderSize]byte
	f.putHeader(&hdr)
	dst = append(dst, hdr[:]...)
	dst = append(dst, f.Key...)
	return append(dst, f.Val...)
}

// WriteFrame encodes the frame to w.
func WriteFrame(w io.Writer, f *Frame) error {
	var hdr [HeaderSize]byte
	f.putHeader(&hdr)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(f.Key) > 0 {
		if _, err := w.Write(f.Key); err != nil {
			return err
		}
	}
	if len(f.Val) > 0 {
		if _, err := w.Write(f.Val); err != nil {
			return err
		}
	}
	return nil
}

// parseHeader validates a frame header and returns the payload lengths.
// Every check fires before any payload byte is read or allocated.
func parseHeader(hdr []byte, lim Limits) (f Frame, klen, vlen int, err error) {
	if hdr[0] != Magic0 || hdr[1] != Magic1 {
		return f, 0, 0, ErrBadMagic
	}
	if hdr[2] != Version {
		return f, 0, 0, &VersionError{Got: hdr[2]}
	}
	if got, want := binary.LittleEndian.Uint32(hdr[32:]), crc32.Checksum(hdr[:32], crcTable); got != want {
		return f, 0, 0, &CRCError{Got: got, Want: want}
	}
	op := Op(hdr[3])
	if b := op.Base(); b == 0 || b > maxOp {
		return f, 0, 0, &OpError{Op: op}
	}
	flags := binary.LittleEndian.Uint32(hdr[4:])
	if flags&^flagsKnown != 0 {
		return f, 0, 0, &FlagError{Flags: flags}
	}
	klen = int(binary.LittleEndian.Uint32(hdr[24:]))
	vlen = int(binary.LittleEndian.Uint32(hdr[28:]))
	if klen > lim.MaxKey || vlen > lim.MaxVal {
		return f, 0, 0, &SizeError{KeyLen: klen, ValLen: vlen, Limits: lim}
	}
	f.Op = op
	f.Flags = flags
	f.ReqID = binary.LittleEndian.Uint64(hdr[8:])
	f.Aux = binary.LittleEndian.Uint64(hdr[16:])
	return f, klen, vlen, nil
}

// DecodeFrame parses one frame from the front of buf, returning the frame
// and the number of bytes consumed. A frame cut short by len(buf) returns
// ErrTruncated; all other malformed inputs return their typed error. It
// never panics and never reads past the reported lengths — the fuzz-pinned
// contract.
func DecodeFrame(buf []byte, lim Limits) (Frame, int, error) {
	if len(buf) < HeaderSize {
		return Frame{}, 0, ErrTruncated
	}
	f, klen, vlen, err := parseHeader(buf[:HeaderSize], lim)
	if err != nil {
		return Frame{}, 0, err
	}
	total := HeaderSize + klen + vlen
	if len(buf) < total {
		return Frame{}, 0, ErrTruncated
	}
	if klen > 0 {
		f.Key = buf[HeaderSize : HeaderSize+klen : HeaderSize+klen]
	}
	if vlen > 0 {
		f.Val = buf[HeaderSize+klen : total : total]
	}
	return f, total, nil
}

// Decoder reads frames from a stream, reusing one header and two payload
// scratch buffers across calls. The decoded Frame's Key/Val alias those
// buffers: valid until the next ReadFrame.
type Decoder struct {
	r   *bufio.Reader
	lim Limits
	hdr [HeaderSize]byte
	key []byte
	val []byte
}

// NewDecoder wraps r with DefaultLimits unless lim is nonzero.
func NewDecoder(r io.Reader, lim Limits) *Decoder {
	if lim.MaxKey == 0 {
		lim.MaxKey = DefaultLimits.MaxKey
	}
	if lim.MaxVal == 0 {
		lim.MaxVal = DefaultLimits.MaxVal
	}
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	return &Decoder{r: br, lim: lim}
}

// Buffered reports the bytes already read from the stream but not yet
// decoded — zero means the next ReadFrame would block, which is the server's
// cue to flush its pending batch and responses.
func (d *Decoder) Buffered() int { return d.r.Buffered() }

// grow returns buf resized to n, reusing capacity.
func grow(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// ReadFrame decodes the next frame into f. A clean EOF at a frame boundary
// returns io.EOF; a stream that dies mid-frame returns io.ErrUnexpectedEOF;
// malformed headers return their typed error with no payload consumed.
func (d *Decoder) ReadFrame(f *Frame) error {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	nf, klen, vlen, err := parseHeader(d.hdr[:], d.lim)
	if err != nil {
		return err
	}
	d.key = grow(d.key, klen)
	d.val = grow(d.val, vlen)
	if _, err := io.ReadFull(d.r, d.key); err != nil {
		return io.ErrUnexpectedEOF
	}
	if _, err := io.ReadFull(d.r, d.val); err != nil {
		return io.ErrUnexpectedEOF
	}
	*f = nf
	if klen > 0 {
		f.Key = d.key
	}
	if vlen > 0 {
		f.Val = d.val
	}
	return nil
}
