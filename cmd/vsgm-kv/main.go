// Command vsgm-kv is an interactive sharded, replicated key-value store: a
// multi-shard deployment (internal/shard) where each shard is its own
// virtually synchronous replica group, a hash-slot map routes every key, and
// live resharding moves whole groups or slot ranges while the store keeps
// serving — the paper's client-server architecture scaled out, hands on.
//
// The REPL is a client (writes route by key hash through the shard map,
// wrong-shard requests redirect) and an operator console (reshard, crash,
// recover, partition, heal) in one:
//
//	vsgm-kv -shards 2 -replicas 3
//	> set color blue                       # routed by hash(color)
//	> get color
//	> map                                  # the committed shard map
//	> reshard slots 0 7 0 1                # hand slots [0,7] from shard 0 to 1
//	> reshard group 1 s1-p00 s1-p03 s1-p04 # re-home shard 1's replica group
//	> crash 0 s0-p01 / recover 0 s0-p01
//	> partition 1 s1-p00 s1-p01 | s1-p02   # split one shard's network
//	> heal 1
//	> verify                               # spec suites + no-lost-acked-writes
//	> quit
//
// Commands can also be piped on stdin for scripted runs.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"vsgm/internal/shard"
	"vsgm/internal/types"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vsgm-kv:", err)
		os.Exit(1)
	}
}

// console bundles the sharded world with the routing client driving it.
// desired tracks each shard's intended membership — the set heal restores,
// maintained across crash, recover, and group reshards.
type console struct {
	w       *shard.World
	router  *shard.Router
	out     io.Writer
	nextID  int
	desired map[int]types.ProcSet
}

func run(args []string, in io.Reader, out io.Writer) (err error) {
	fs := flag.NewFlagSet("vsgm-kv", flag.ContinueOnError)
	var (
		shards   = fs.Int("shards", 2, "number of shards (each its own replica group)")
		replicas = fs.Int("replicas", 3, "replicas per shard group")
		spares   = fs.Int("spares", 2, "spare processes per shard (reshard targets)")
		slots    = fs.Int("slots", shard.DefaultSlots, "hash slots in the shard map")
		seed     = fs.Int64("seed", 1, "simulation seed")
		stateDir = fs.String("state-dir", "", "durable store root (empty = in-memory stores)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	w, err := shard.NewWorld(shard.WorldConfig{
		Shards:   *shards,
		Replicas: *replicas,
		Spares:   *spares,
		Slots:    *slots,
		Seed:     *seed,
		StateDir: *stateDir,
	})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}()
	c := &console{w: w, router: shard.NewRouter(w, 0), out: out, desired: make(map[int]types.ProcSet)}
	for _, id := range w.ShardIDs() {
		c.desired[id] = w.Group(id)
	}
	m := w.CommittedMap()
	fmt.Fprintf(out, "sharded store up: %d shards x %d replicas, %d slots, map epoch %d (try 'help')\n",
		len(m.Groups), *replicas, len(m.Slots), m.Epoch)

	sc := bufio.NewScanner(in)
	for {
		fmt.Fprint(out, "> ")
		if !sc.Scan() {
			fmt.Fprintln(out)
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			return nil
		}
		if err := c.exec(line); err != nil {
			fmt.Fprintf(out, "! %v\n", err)
		}
	}
}

func (c *console) exec(line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case "help":
		fmt.Fprint(c.out, `commands:
  set <key> <value>                write, routed by key hash through the shard map
  get <key>                        read from the key's shard
  del <key>                        delete, routed like set
  where <key>                      show the key's slot and owning shard
  map                              print the committed shard map
  stats                            router and per-shard metrics
  reshard group <shard> <procs..>  re-home a shard onto a new replica group
  reshard slots <lo> <hi> <s> <d>  hand a slot range from shard s to shard d
  crash <shard> <proc>             crash one replica (survivors reconfigure)
  recover <shard> <proc>           cold-restart it from its store and rejoin
  partition <shard> <ids> | <ids>  split one shard's network + membership
  heal <shard>                     reconnect and merge that shard
  verify                           spec suites + no-lost-acknowledged-writes
  quit
`)
		return nil

	case "set":
		if len(fields) != 3 {
			return errors.New("usage: set <key> <value>")
		}
		if err := c.router.Set(fields[1], fields[2]); err != nil {
			return err
		}
		fmt.Fprintf(c.out, "%s = %q acknowledged by shard %d\n",
			fields[1], fields[2], c.w.CommittedMap().ShardForKey(fields[1]))
		return nil

	case "get":
		if len(fields) != 2 {
			return errors.New("usage: get <key>")
		}
		v, found, err := c.router.Get(fields[1])
		if err != nil {
			return err
		}
		if found {
			fmt.Fprintf(c.out, "%s = %q\n", fields[1], v)
		} else {
			fmt.Fprintf(c.out, "%s is unset\n", fields[1])
		}
		return nil

	case "del":
		if len(fields) != 2 {
			return errors.New("usage: del <key>")
		}
		if err := c.router.Del(fields[1]); err != nil {
			return err
		}
		fmt.Fprintf(c.out, "%s deleted\n", fields[1])
		return nil

	case "where":
		if len(fields) != 2 {
			return errors.New("usage: where <key>")
		}
		m := c.w.CommittedMap()
		fmt.Fprintf(c.out, "%s: slot %d, shard %d, group %s\n",
			fields[1], m.SlotOf(fields[1]), m.ShardForKey(fields[1]),
			c.w.Group(m.ShardForKey(fields[1])))
		return nil

	case "map":
		m := c.w.CommittedMap()
		fmt.Fprintf(c.out, "epoch %d, %d slots\n", m.Epoch, len(m.Slots))
		for _, id := range m.ShardIDs() {
			owned := m.SlotsOwned(id)
			fmt.Fprintf(c.out, "  shard %d: %d slots %s, group %s\n",
				id, len(owned), slotRanges(owned), c.w.Group(id))
		}
		return nil

	case "stats":
		fmt.Fprintf(c.out, "router: epoch %d, %d redirects, %d map refreshes\n",
			c.router.Epoch(), c.router.Redirects(), c.router.Refreshes())
		fmt.Fprintf(c.out, "acknowledged writes: %d\n", c.w.AckedWrites())
		for _, s := range c.w.Registry().Snapshot().Samples {
			if !strings.HasPrefix(s.Name, "vsgm_shard_") {
				continue
			}
			label := ""
			for _, l := range s.Labels {
				label += fmt.Sprintf("{%s=%s}", l.Key, l.Value)
			}
			fmt.Fprintf(c.out, "  %s%s = %g\n", s.Name, label, s.Value)
		}
		return nil

	case "reshard":
		return c.reshard(fields[1:])

	case "crash":
		id, p, err := c.shardProc(fields, "crash")
		if err != nil {
			return err
		}
		if c.w.Group(id).Len() <= 1 {
			return errors.New("cannot crash the shard's last replica")
		}
		if err := c.w.CrashReplica(id, p); err != nil {
			return err
		}
		c.desired[id].Remove(p)
		fmt.Fprintf(c.out, "shard %d: %s crashed; group now %s\n", id, p, c.w.Group(id))
		return nil

	case "recover":
		id, p, err := c.shardProc(fields, "recover")
		if err != nil {
			return err
		}
		if err := c.w.RecoverReplica(id, p); err != nil {
			return err
		}
		c.desired[id].Add(p)
		if err := c.w.ReconfigureShard(id, c.desired[id]); err != nil {
			return err
		}
		fmt.Fprintf(c.out, "shard %d: %s recovered from its store (synced=%v); group now %s\n",
			id, p, c.w.Replica(id, p).Synced(), c.w.Group(id))
		return nil

	case "partition":
		if len(fields) < 4 {
			return errors.New("usage: partition <shard> <ids> | <ids>")
		}
		id, err := c.shardID(fields[1])
		if err != nil {
			return err
		}
		rest := strings.Join(fields[2:], " ")
		halves := strings.Split(rest, "|")
		if len(halves) != 2 {
			return errors.New("usage: partition <shard> <ids> | <ids>")
		}
		sides := make([]types.ProcSet, 2)
		for i, half := range halves {
			sides[i] = types.NewProcSet()
			for _, raw := range strings.Fields(half) {
				sides[i].Add(types.ProcID(raw))
			}
			if sides[i].Len() == 0 {
				return errors.New("empty side")
			}
		}
		if err := c.w.PartitionShard(id, sides[0], sides[1]); err != nil {
			return err
		}
		fmt.Fprintf(c.out, "shard %d partitioned %s | %s (serving side: %s)\n",
			id, sides[0], sides[1], c.w.Group(id))
		return nil

	case "heal":
		if len(fields) != 2 {
			return errors.New("usage: heal <shard>")
		}
		id, err := c.shardID(fields[1])
		if err != nil {
			return err
		}
		if err := c.w.HealShard(id, c.desired[id]); err != nil {
			return err
		}
		fmt.Fprintf(c.out, "shard %d merged into %s\n", id, c.w.Group(id))
		return nil

	case "verify":
		if err := c.w.Check(); err != nil {
			return err
		}
		if err := c.w.VerifyAcked(); err != nil {
			return err
		}
		fmt.Fprintf(c.out, "all specification checkers pass; %d acknowledged writes intact\n", c.w.AckedWrites())
		return nil

	default:
		return fmt.Errorf("unknown command %q (try 'help')", fields[0])
	}
}

// reshard parses and drives one resharding, printing each protocol step as
// it completes so the state-machine progression is visible.
func (c *console) reshard(args []string) error {
	if len(args) < 1 {
		return errors.New("usage: reshard group|slots ...")
	}
	var prop shard.Reshard
	switch args[0] {
	case "group":
		if len(args) < 3 {
			return errors.New("usage: reshard group <shard> <procs...>")
		}
		id, err := c.shardID(args[1])
		if err != nil {
			return err
		}
		group := make([]types.ProcID, 0, len(args)-2)
		for _, raw := range args[2:] {
			group = append(group, types.ProcID(raw))
		}
		prop = shard.Reshard{ID: c.mintID(), Kind: shard.MoveGroup, Shard: id, NewGroup: group}
	case "slots":
		if len(args) != 5 {
			return errors.New("usage: reshard slots <lo> <hi> <src> <dst>")
		}
		lo, err1 := strconv.Atoi(args[1])
		hi, err2 := strconv.Atoi(args[2])
		if err1 != nil || err2 != nil {
			return errors.New("slot bounds must be integers")
		}
		src, err := c.shardID(args[3])
		if err != nil {
			return err
		}
		dst, err := c.shardID(args[4])
		if err != nil {
			return err
		}
		prop = shard.Reshard{ID: c.mintID(), Kind: shard.MoveSlots, Shard: src, Dst: dst, SlotLo: lo, SlotHi: hi}
	default:
		return fmt.Errorf("unknown reshard kind %q (want group or slots)", args[0])
	}

	rs := shard.NewResharder(c.w, prop)
	for {
		step := rs.StepName()
		done, err := rs.Step()
		if err != nil {
			return fmt.Errorf("reshard %s aborted at step %s: %w", prop.ID, step, err)
		}
		fmt.Fprintf(c.out, "  [%s] %s done\n", prop.ID, step)
		if done {
			break
		}
	}
	if prop.Kind == shard.MoveGroup {
		c.desired[prop.Shard] = types.NewProcSet(prop.NewGroup...)
	}
	m := c.w.CommittedMap()
	fmt.Fprintf(c.out, "reshard %s committed; map epoch now %d\n", prop.ID, m.Epoch)
	return nil
}

func (c *console) mintID() string {
	c.nextID++
	return fmt.Sprintf("cli-%d", c.nextID)
}

func (c *console) shardID(raw string) (int, error) {
	id, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("bad shard id %q", raw)
	}
	for _, s := range c.w.ShardIDs() {
		if s == id {
			return id, nil
		}
	}
	return 0, fmt.Errorf("no shard %d", id)
}

func (c *console) shardProc(fields []string, verb string) (int, types.ProcID, error) {
	if len(fields) != 3 {
		return 0, "", fmt.Errorf("usage: %s <shard> <proc>", verb)
	}
	id, err := c.shardID(fields[1])
	if err != nil {
		return 0, "", err
	}
	return id, types.ProcID(fields[2]), nil
}

// slotRanges renders a sorted slot list as compact inclusive ranges.
func slotRanges(slots []int) string {
	if len(slots) == 0 {
		return "[]"
	}
	var b strings.Builder
	b.WriteByte('[')
	lo := slots[0]
	prev := slots[0]
	flush := func() {
		if b.Len() > 1 {
			b.WriteByte(' ')
		}
		if lo == prev {
			fmt.Fprintf(&b, "%d", lo)
		} else {
			fmt.Fprintf(&b, "%d-%d", lo, prev)
		}
	}
	for _, s := range slots[1:] {
		if s == prev+1 {
			prev = s
			continue
		}
		flush()
		lo, prev = s, s
	}
	flush()
	b.WriteByte(']')
	return b.String()
}
