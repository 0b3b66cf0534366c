package serve

import (
	"fmt"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/query"
	"github.com/arrayview/arrayview/internal/shape"
	"github.com/arrayview/arrayview/internal/transport"
)

// QueryResult is one answered remote query.
type QueryResult struct {
	// Epoch is the snapshot epoch the answer is consistent with.
	Epoch uint64
	// UseView reports which path the server took (differential via the
	// view, or complete join).
	UseView bool
	// Array holds the aggregate state tuples of the answer, in the view's
	// schema.
	Array *array.Array
}

// Client speaks the serve protocol to one ivmserve daemon. It needs the
// view's schema to reassemble result chunks into an array; get it from the
// same view definition the server was started with.
type Client struct {
	tc     *transport.Client
	schema *array.Schema
}

// NewClient connects to a serving daemon. A nil config uses the transport
// defaults.
func NewClient(addr string, viewSchema *array.Schema, cfg *transport.ClientConfig) (*Client, error) {
	if viewSchema == nil {
		return nil, fmt.Errorf("serve: client needs the view schema")
	}
	c := transport.DefaultClientConfig()
	if cfg != nil {
		c = *cfg
	}
	return &Client{tc: transport.NewClient(addr, c), schema: viewSchema}, nil
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.tc.Do(&transport.Message{Type: transport.MsgPing})
	return err
}

// Query evaluates one shape query on the server at a pinned snapshot epoch.
// An overload rejection comes back as an error for which IsOverload is true.
func (c *Client) Query(queryShape *shape.Shape, mode query.Mode) (*QueryResult, error) {
	spec, err := EncodeShape(queryShape)
	if err != nil {
		return nil, err
	}
	resp, err := c.tc.Do(&transport.Message{
		Type: transport.MsgQuery,
		Mode: uint8(mode),
		Spec: spec,
	})
	if err != nil {
		return nil, err
	}
	if resp.Type != transport.MsgQueryResult {
		return nil, fmt.Errorf("serve: unexpected reply %s", resp.Type)
	}
	out := array.New(c.schema)
	for _, enc := range resp.Chunks {
		ch, err := array.DecodeChunk(enc)
		if err != nil {
			return nil, err
		}
		if err := c.schema.CheckChunk(ch); err != nil {
			return nil, fmt.Errorf("serve: query reply: %w", err)
		}
		out.PutChunk(ch)
	}
	return &QueryResult{Epoch: resp.Epoch, UseView: resp.Flag, Array: out}, nil
}

// Stats fetches the daemon's health summary.
func (c *Client) Stats() (Stats, error) {
	resp, err := c.tc.Do(&transport.Message{Type: transport.MsgSnapshot})
	if err != nil {
		return Stats{}, err
	}
	if resp.Type != transport.MsgSnapshotReply {
		return Stats{}, fmt.Errorf("serve: unexpected reply %s", resp.Type)
	}
	return decodeStats(resp.Spec)
}

// Close releases the client's connections.
func (c *Client) Close() error { return c.tc.Close() }
