package shard

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
)

// TestSinkRoutesBitIdentical holds every sink kind to one result whatever
// route it takes to the caller: a fresh pass, a within-pass duplicate (CSE
// hands it a clone of its twin's partial), a result-cache hit, a FuseNone
// engine (one pass per operation) and a 2-shard engine (partials merged in
// shard order). Writing into a returned result must reach neither the cache
// nor a duplicate: results are scribbled over before each later read.
func TestSinkRoutesBitIdentical(t *testing.T) {
	ctx := context.Background()
	none := testConfig()
	none.Fuse = core.FuseNone
	noneEng, err := core.NewEngine(none)
	if err != nil {
		t.Fatal(err)
	}
	localEng, err := core.NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	shardEng, _ := newShardedEngine(t, 2, nil)

	var ref [][]uint64
	for _, route := range []struct {
		name string
		eng  *core.Engine
	}{{"local", localEng}, {"fuse=none", noneEng}, {"shard=2", shardEng}} {
		x, lab, key := routeLeaves(t, route.eng)
		// Pass 1 runs every kind twice over the same leaves: the second
		// set is a within-pass duplicate of the first.
		fresh, dup := routeSinks(t, x, lab, key), routeSinks(t, x, lab, key)
		ms, err := route.eng.MaterializePass(ctx, nil, append(append([]*core.Sink(nil), fresh...), dup...), core.PassOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ms.CSEUnifications != int64(len(dup)) {
			t.Fatalf("%s: %d CSE unifications, want %d", route.name, ms.CSEUnifications, len(dup))
		}
		got := map[string][][]uint64{"fresh": sinkBits(fresh)}
		scribble(fresh) // the duplicate holds a copy, not its twin's result
		got["duplicate"] = sinkBits(dup)
		held := [][]*core.Sink{fresh, dup}
		// Passes 2 and 3 are served whole from the result cache, each after
		// the caller wrote into every result it holds.
		for _, name := range []string{"cache hit", "cache hit after writes"} {
			for _, ss := range held {
				scribble(ss)
			}
			hit := routeSinks(t, x, lab, key)
			ms, err := route.eng.MaterializePass(ctx, nil, hit, core.PassOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if ms.CacheHits != int64(len(hit)) || ms.Passes != 0 {
				t.Fatalf("%s %s: %d cache hits and %d passes, want %d and 0", route.name, name, ms.CacheHits, ms.Passes, len(hit))
			}
			got[name] = sinkBits(hit)
			held = append(held, hit)
		}
		if ref == nil {
			ref = got["fresh"]
		}
		for name, bits := range got {
			for i := range bits {
				if !sameWords(bits[i], ref[i]) {
					t.Fatalf("%s %s: %s sink differs from the local fresh pass", route.name, name, core.SinkKind(i))
				}
			}
		}
	}
}

// TestKeyedPartialsShipOnce: a worker's table or groupby partial ships its
// keys with their counts or folds, and not Data, which repeats the keys or
// folds and which the coordinator rebuilds. Each key a shard holds is 8 bytes
// less on the wire than with Data shipped, and the results stay bit-identical
// to one engine's.
func TestKeyedPartialsShipOnce(t *testing.T) {
	ctx := context.Background()
	var log wireLog
	shardEng, _ := newShardedEngine(t, 2, func(_ int, tr Transport) Transport {
		return &loggingTransport{inner: tr, log: &log}
	})
	localEng, err := core.NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	plus := mustAgg(t, "+")
	var results [][][]uint64
	for _, eng := range []*core.Engine{localEng, shardEng} {
		_, _, key := routeLeaves(t, eng)
		log.calls = nil
		ss := []*core.Sink{core.Table(key), core.GroupByVal(key, plus)}
		ms, err := eng.MaterializePass(ctx, nil, ss, core.PassOptions{})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, sinkBits(ss))
		if eng == localEng {
			continue
		}
		var recv, saved, keys int64
		for _, c := range log.calls {
			recv += int64(len(c.resp) + 5)
			if c.op != opExec {
				continue
			}
			q, err := decodeExecResp(c.resp)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range q.Partials {
				if len(p.Keys) == 0 {
					continue
				}
				if len(p.Data) != 0 {
					t.Fatalf("keyed partial with %d keys ships %d values of Data", len(p.Keys), len(p.Data))
				}
				keys += int64(len(p.Keys))
				// Data as it shipped before: the keys (table) or the folds
				// (groupby) once more.
				p.Data = p.Keys
				if len(p.Folds) > 0 {
					p.Data = p.Folds
				}
			}
			saved += int64(len(encodeExecResp(q)) - len(c.resp))
		}
		if recv != ms.ShardBytesRecv {
			t.Fatalf("logged %d response bytes, ShardBytesRecv %d", recv, ms.ShardBytesRecv)
		}
		if keys == 0 || saved != 8*keys {
			t.Fatalf("%d keys across the shards save %d bytes, want %d", keys, saved, 8*keys)
		}
	}
	for i := range results[0] {
		if !sameWords(results[0][i], results[1][i]) {
			t.Fatalf("2-shard %s result differs from one engine's", core.SinkKind(4+i))
		}
	}
}

// wireLog records every answered call's op and response bytes.
type wireLog struct {
	mu    sync.Mutex
	calls []loggedCall
}

type loggedCall struct {
	op   uint8
	resp []byte
}

type loggingTransport struct {
	inner Transport
	log   *wireLog
}

func (l *loggingTransport) Call(ctx context.Context, op uint8, body []byte) ([]byte, error) {
	resp, err := l.inner.Call(ctx, op, body)
	if err == nil {
		l.log.mu.Lock()
		l.log.calls = append(l.log.calls, loggedCall{op, append([]byte(nil), resp...)})
		l.log.mu.Unlock()
	}
	return resp, err
}

func (l *loggingTransport) Close() error { return l.inner.Close() }

// routeLeaves generates the three inputs the route sinks read: the integer
// matrix of the shard tests, group labels in {0, 1, 2}, and a column of
// keys that holds NaN, -0 and 0.
func routeLeaves(t *testing.T, eng *core.Engine) (x, lab, key *core.Mat) {
	t.Helper()
	var err error
	if x, err = eng.Generate(testNRow, testNCol, matrix.F64, fillInt); err != nil {
		t.Fatal(err)
	}
	if lab, err = eng.Generate(testNRow, 1, matrix.F64, func(start int64, rows int, buf []float64) {
		for r := range buf[:rows] {
			buf[r] = float64((start + int64(r)) % 3)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if key, err = eng.Generate(testNRow, 1, matrix.F64, func(start int64, rows int, buf []float64) {
		for r := range buf[:rows] {
			switch g := start + int64(r); g % 7 {
			case 0:
				buf[r] = math.NaN()
			case 1:
				buf[r] = math.Copysign(0, -1)
			case 2:
				buf[r] = 0
			default:
				buf[r] = float64(g % 5)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	return x, lab, key
}

// routeSinks builds one sink of each of the six kinds.
func routeSinks(t *testing.T, x, lab, key *core.Mat) []*core.Sink {
	plus, maxf := mustAgg(t, "+"), mustAgg(t, "max")
	ss := []*core.Sink{
		core.Agg(x, plus),
		core.AggCol(x, maxf),
		core.GroupByRow(x, lab, 3, plus),
		core.CrossProd(x, x, nil, nil),
		core.Table(key),
		core.GroupByVal(key, plus),
	}
	for i, s := range ss {
		if s.Kind() != core.SinkKind(i) {
			t.Fatalf("sink %d is %s", i, s.Kind())
		}
	}
	return ss
}

// sinkBits renders each sink's result as words: shape and values, then the
// keys with their counts or folds for the keyed kinds.
func sinkBits(ss []*core.Sink) [][]uint64 {
	var out [][]uint64
	for _, s := range ss {
		d := s.Result()
		w := []uint64{uint64(d.R), uint64(d.C)}
		for _, v := range d.Data {
			w = append(w, math.Float64bits(v))
		}
		switch s.Kind() {
		case core.SinkTable:
			keys, counts := s.TableResult()
			for i, k := range keys {
				w = append(w, math.Float64bits(k), uint64(counts[i]))
			}
		case core.SinkGroupByVal:
			keys, folds := s.GroupByValResult()
			for i, k := range keys {
				w = append(w, math.Float64bits(k), math.Float64bits(folds[i]))
			}
		}
		out = append(out, w)
	}
	return out
}

// scribble writes over everything a caller can reach of each result.
func scribble(ss []*core.Sink) {
	for _, s := range ss {
		d := s.Result()
		for i := range d.Data {
			d.Data[i] = 12345
		}
		switch s.Kind() {
		case core.SinkTable:
			keys, counts := s.TableResult()
			for i := range keys {
				keys[i], counts[i] = -7, -7
			}
		case core.SinkGroupByVal:
			keys, folds := s.GroupByValResult()
			for i := range keys {
				keys[i], folds[i] = -7, -7
			}
		}
	}
}

func sameWords(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
