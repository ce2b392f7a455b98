// Binary transport: large matrices skip JSON float parsing entirely.
//
// A submission with Content-Type application/x-deltacluster-matrix
// carries a DSUB envelope — the submission parameters as JSON, framed
// and checksummed exactly like a DCKP checkpoint, followed by the
// matrix as a self-checksummed DCMX section (internal/matrix). The
// same envelope, with DispatchRequest parameters, rides the internal
// dispatch route so the coordinator can proxy the matrix bytes
// verbatim. A result fetched with Accept: x-deltacluster-matrix comes
// back as a DRES envelope (result JSON, framed the same way).
//
//	offset  size  field
//	0       4     magic ("DSUB" or "DRES")
//	4       4     format version (uint32 LE, currently 1)
//	8       8     params length n (uint64 LE)
//	16      n     params JSON
//	16+n    32    SHA-256 of params JSON
//	48+n    —     DCMX matrix section (DSUB only; absent in DRES)

package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"deltacluster/internal/matrix"
)

// ContentTypeBinaryMatrix is the Content-Type of binary submissions
// and the Accept value of binary result downloads.
const ContentTypeBinaryMatrix = matrix.BinaryContentType

const (
	submitMagic = "DSUB"
	resultMagic = "DRES"

	envelopeVersion   = 1
	envelopeHeaderLen = 16
)

// isBinaryContentType matches the binary MIME type, tolerating
// parameters ("; charset=...") after it.
func isBinaryContentType(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct) == ContentTypeBinaryMatrix
}

// acceptsBinary reports whether an Accept header asks for the binary
// result encoding.
func acceptsBinary(accept string) bool {
	return strings.Contains(accept, ContentTypeBinaryMatrix)
}

// encodeEnvelope frames params (JSON) under the given magic and
// appends the optional trailer verbatim.
func encodeEnvelope(magic string, params, trailer []byte) []byte {
	buf := make([]byte, 0, envelopeHeaderLen+len(params)+sha256.Size+len(trailer))
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, envelopeVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(params)))
	buf = append(buf, params...)
	sum := sha256.Sum256(params)
	buf = append(buf, sum[:]...)
	return append(buf, trailer...)
}

// decodeEnvelope verifies the framing under the given magic and
// returns the params JSON and whatever trails the checksum (the DCMX
// section for DSUB; empty for DRES). Framing is checked before any
// payload byte is interpreted: magic, version, declared length, then
// the checksum.
func decodeEnvelope(magic string, data []byte) (params, trailer []byte, err error) {
	if len(data) < envelopeHeaderLen || string(data[:4]) != magic {
		return nil, nil, fmt.Errorf("not a %s envelope (bad magic)", magic)
	}
	version := binary.LittleEndian.Uint32(data[4:8])
	if version != envelopeVersion {
		return nil, nil, fmt.Errorf("unsupported %s envelope version %d", magic, version)
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	if uint64(len(data)-envelopeHeaderLen) < n || len(data)-envelopeHeaderLen-int(n) < sha256.Size {
		return nil, nil, fmt.Errorf("%s envelope truncated", magic)
	}
	params = data[envelopeHeaderLen : envelopeHeaderLen+int(n)]
	sum := sha256.Sum256(params)
	if !bytes.Equal(sum[:], data[envelopeHeaderLen+int(n):envelopeHeaderLen+int(n)+sha256.Size]) {
		return nil, nil, fmt.Errorf("%s envelope checksum mismatch", magic)
	}
	return params, data[envelopeHeaderLen+int(n)+sha256.Size:], nil
}

// EncodeBinarySubmit renders a client-side binary submission: req
// (whose Matrix payload must be empty — the matrix travels beside it)
// plus the matrix as a DCMX section. cmd/datagen -binary and the
// tests build request bodies with this.
func EncodeBinarySubmit(req *SubmitRequest, m *matrix.Matrix) ([]byte, error) {
	if len(req.Matrix.Rows) > 0 || req.Matrix.CSV != "" {
		return nil, fmt.Errorf("binary submit: the matrix travels as the DCMX section; matrix.rows/csv must be empty")
	}
	params, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("binary submit: encoding params: %w", err)
	}
	return encodeEnvelope(submitMagic, params, matrix.EncodeBinary(m)), nil
}

// DecodeBinarySubmit parses a DSUB client submission into its
// SubmitRequest parameters and the raw DCMX section. The section is
// returned unopened — a proxy forwards it verbatim and the executing
// backend verifies its checksum, so the matrix's integrity is checked
// exactly once, at the point where the bytes are actually interpreted.
func DecodeBinarySubmit(data []byte) (*SubmitRequest, []byte, error) {
	params, dcmx, err := decodeEnvelope(submitMagic, data)
	if err != nil {
		return nil, nil, err
	}
	var req SubmitRequest
	dec := json.NewDecoder(bytes.NewReader(params))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, nil, fmt.Errorf("params: %v", err)
	}
	if len(req.Matrix.Rows) > 0 || req.Matrix.CSV != "" {
		return nil, nil, errors.New("the matrix travels as the DCMX section; matrix.rows/csv must be empty")
	}
	return &req, dcmx, nil
}

// EncodeBinaryDispatch renders a coordinator-side binary dispatch: the
// DispatchRequest parameters framed ahead of the client's original
// DCMX bytes, which are forwarded verbatim — the backend re-verifies
// their checksum, so coordinator proxying cannot corrupt the matrix
// silently.
func EncodeBinaryDispatch(req *DispatchRequest, dcmx []byte) ([]byte, error) {
	if len(req.Submit.Matrix.Rows) > 0 || req.Submit.Matrix.CSV != "" {
		return nil, fmt.Errorf("binary dispatch: the matrix travels as the DCMX section; submit.matrix must be empty")
	}
	params, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("binary dispatch: encoding params: %w", err)
	}
	return encodeEnvelope(submitMagic, params, dcmx), nil
}

// DecodeBinaryResult parses a DRES result download back into a
// ResultView — the client-side complement of the binary result path.
func DecodeBinaryResult(data []byte) (*ResultView, error) {
	params, trailer, err := decodeEnvelope(resultMagic, data)
	if err != nil {
		return nil, err
	}
	if len(trailer) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after %s envelope", len(trailer), resultMagic)
	}
	var res ResultView
	if err := json.Unmarshal(params, &res); err != nil {
		return nil, fmt.Errorf("decoding %s result params: %w", resultMagic, err)
	}
	return &res, nil
}

// readFullBody drains a MaxBytesReader-bounded body into a pooled
// buffer. The returned bytes alias the buffer — the caller must
// finish with them before putBodyBuf.
func (s *Server) readFullBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, []byte, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	buf := bodyBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(r.Body); err != nil {
		putBodyBuf(buf)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, CodeInvalidRequest,
				"request body exceeds %d bytes", tooLarge.Limit)
			return nil, nil, false
		}
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "reading request body: %v", err)
		return nil, nil, false
	}
	return buf, buf.Bytes(), true
}

var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func putBodyBuf(buf *bytes.Buffer) {
	// Oversized one-off bodies are dropped instead of pinned in the
	// pool forever.
	if buf.Cap() > 4<<20 {
		return
	}
	bodyBufPool.Put(buf)
}

// handleSubmitBinary is the binary branch of POST /v1/jobs: a DSUB
// envelope instead of a JSON body. The decoded matrix feeds the same
// buildSpecWith/enqueue path as a JSON submission, which is what makes
// the two transports bit-identical in outcome.
func (s *Server) handleSubmitBinary(w http.ResponseWriter, r *http.Request) {
	buf, body, ok := s.readFullBody(w, r)
	if !ok {
		return
	}
	defer putBodyBuf(buf)
	params, dcmx, err := decodeEnvelope(submitMagic, body)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "binary submit: %v", err)
		return
	}
	var req SubmitRequest
	dec := json.NewDecoder(bytes.NewReader(params))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "binary submit params: %v", err)
		return
	}
	if len(req.Matrix.Rows) > 0 || req.Matrix.CSV != "" {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest,
			"binary submit: the matrix travels as the DCMX section; matrix.rows/csv must be empty")
		return
	}
	m, err := matrix.DecodeBinary(dcmx, s.opts.MaxMatrixEntries)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "binary submit: %v", err)
		return
	}
	spec, aerr := s.buildSpecWith(&req, m)
	if aerr != nil {
		writeError(w, aerr.status, aerr.code, "%s", aerr.message)
		return
	}
	s.store.sweep()
	id := s.store.create(spec)
	view, _ := s.store.view(id) // before the enqueue, as in handleSubmit
	if !s.enqueue(w, id) {
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+id)
	writeJSON(w, http.StatusAccepted, SubmitResponse{Job: view})
}

// handleDispatchBinary is the binary branch of POST /v1/internal/jobs:
// DispatchRequest params framed ahead of coordinator-proxied DCMX
// bytes. The checksum re-verification in DecodeBinary is the
// end-to-end integrity guarantee of the proxy path.
func (s *Server) handleDispatchBinary(w http.ResponseWriter, r *http.Request) {
	buf, body, ok := s.readFullBody(w, r)
	if !ok {
		return
	}
	defer putBodyBuf(buf)
	params, dcmx, err := decodeEnvelope(submitMagic, body)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "binary dispatch: %v", err)
		return
	}
	var req DispatchRequest
	dec := json.NewDecoder(bytes.NewReader(params))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "binary dispatch params: %v", err)
		return
	}
	if len(req.Submit.Matrix.Rows) > 0 || req.Submit.Matrix.CSV != "" {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest,
			"binary dispatch: the matrix travels as the DCMX section; submit.matrix must be empty")
		return
	}
	m, err := matrix.DecodeBinary(dcmx, s.opts.MaxMatrixEntries)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "binary dispatch: %v", err)
		return
	}
	s.dispatchCore(w, &req, m)
}

// writeBinaryResult renders a ResultView as a DRES envelope — the
// binary result download.
func writeBinaryResult(w http.ResponseWriter, res *ResultView) {
	params, err := json.Marshal(res)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, "encoding result: %v", err)
		return
	}
	data := encodeEnvelope(resultMagic, params, nil)
	w.Header().Set("Content-Type", ContentTypeBinaryMatrix)
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}
