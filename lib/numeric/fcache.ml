(* Open-addressed float-keyed memo table.  See the .mli for the
   contract; the points that matter for the implementation:

   - Keys live in one flat [float array] ([capacity * arity] cells) so
     a probe reads adjacent unboxed floats; values in a second flat
     array; per-slot generation stamps in a [Bytes.t].  Nothing is
     allocated per lookup: hashing goes through
     [Int64.to_int (Int64.bits_of_float x)], whose intermediate boxing
     the compiler eliminates, and misses are reported as [nan] instead
     of an [option].

   - Linear probing, at most [max_probe] slots.  Slots are never
     emptied (generation stamps only ever advance), so probe chains
     stay valid without tombstones: a lookup stops at a never-used slot
     (stamp 0), skips over expired slots, and otherwise compares keys
     bit-for-bit.

   - Generations: a slot is live while its stamp is the current or the
     previous generation.  Every [capacity / 2] insertions the current
     stamp advances, expiring the older half-table in place — the
     replacement for the old [Hashtbl.reset] cliff.  Stamps cycle
     through 1..255; a stamp that wraps around onto a live value can at
     worst resurrect a stale entry of the *same key*, which for a memo
     of a pure function is still the correct value. *)

type t = {
  label : string;
  arity : int;
  mask : int;               (* capacity - 1; capacity is a power of two *)
  keys : float array;       (* capacity * arity *)
  values : float array;     (* capacity *)
  stamps : Bytes.t;         (* 0 = never used, else generation stamp *)
  scratch : float array;    (* arity; the key being looked up / added *)
  mutable current : int;    (* live generation stamp, cycles in 1..255 *)
  mutable previous : int;   (* the other live stamp (0 before first flip) *)
  mutable fresh : int;      (* insertions since the last flip *)
  mutable flips : int;      (* total generation advances, for tests *)
}

let max_probe = 8

let default_capacity = 1 lsl 16

(* Registry of every live table, for the occupancy lines of the --stats
   report.  Domain-local caches register one instance per domain that
   touched them (the report aggregates by label).  Registration happens
   once per table at [create] — never on the lookup path. *)
let registry_mutex = Mutex.create ()

let registry : t list ref = ref []

let create ?(label = "anon") ?(capacity = default_capacity) ~arity () =
  if arity < 1 || arity > 8 then invalid_arg "Fcache.create: arity not in 1..8";
  if capacity < 1 then invalid_arg "Fcache.create: capacity < 1";
  let cap = ref 1 in
  while !cap < capacity || !cap < 2 * max_probe do
    cap := !cap * 2
  done;
  let cap = !cap in
  let t =
    { label;
      arity;
      mask = cap - 1;
      keys = Array.make (cap * arity) 0.0;
      values = Array.make cap 0.0;
      stamps = Bytes.make cap '\000';
      scratch = Array.make arity 0.0;
      current = 1;
      previous = 0;
      fresh = 0;
      flips = 0 }
  in
  Mutex.lock registry_mutex;
  registry := t :: !registry;
  Mutex.unlock registry_mutex;
  t

let capacity t = t.mask + 1

let arity t = t.arity

let generation t = t.flips + 1

let clear t =
  Bytes.fill t.stamps 0 (capacity t) '\000';
  t.current <- 1;
  t.previous <- 0;
  t.fresh <- 0;
  t.flips <- 0

(* SplitMix64-flavoured mixing over the raw float words.  [to_int]
   drops the top bit — irrelevant for a hash — and the final xor-shift
   spreads entropy into the low bits the mask keeps. *)
let[@inline] hash t =
  let h = ref 0x27d4eb2f165667c5 in
  for i = 0 to t.arity - 1 do
    let w = Int64.to_int (Int64.bits_of_float t.scratch.(i)) in
    h := (!h lxor w) * 0x2545F4914F6CDD1D
  done;
  let h = !h in
  let h = h lxor (h lsr 29) in
  (h * 0x2545F4914F6CDD1D) lsr 8

let[@inline] live t stamp = stamp = t.current || stamp = t.previous

(* Bit-for-bit key equality.  Float [=] alone would conflate -0.0 and
   0.0 (different words, so possibly different hash slots — a key could
   then occupy two slots with diverging values); the word comparison
   only runs in the both-zero case, keeping the common path free of
   [Int64] boxing.  NaN keys never match themselves and so always
   miss — callers must not use NaN key components. *)
let[@inline] fbits_equal a b =
  a = b && (a <> 0.0 || Int64.bits_of_float a = Int64.bits_of_float b)

let[@inline] keys_match t slot =
  let base = slot * t.arity in
  let i = ref 0 in
  while
    !i < t.arity && fbits_equal (t.keys.(base + !i) : float) t.scratch.(!i)
  do
    incr i
  done;
  !i >= t.arity

(* Find the scratch key: value on a live bit-exact match, nan else.
   Loops, not local recursion, so the lookup inlines into the
   [find*] call sites and its float result is never boxed. *)
let[@inline] find_scratch t =
  let h = hash t in
  let found = ref Float.nan in
  let i = ref 0 in
  while !i < max_probe do
    let slot = (h + !i) land t.mask in
    let stamp = Char.code (Bytes.unsafe_get t.stamps slot) in
    if stamp = 0 then i := max_probe
    else if live t stamp && keys_match t slot then begin
      (* refresh: a hot key survives generation turnover *)
      if stamp <> t.current then
        Bytes.unsafe_set t.stamps slot (Char.unsafe_chr t.current);
      found := t.values.(slot);
      i := max_probe
    end
    else incr i
  done;
  !found

let advance_generation t =
  t.previous <- t.current;
  t.current <- (if t.current >= 255 then 1 else t.current + 1);
  t.fresh <- 0;
  t.flips <- t.flips + 1;
  (* one flip expires half a table in place — the eviction event the
     occupancy/hit-rate analysis wants to see counted *)
  let probe = Probe.local () in
  probe.Probe.fcache_evictions <- probe.Probe.fcache_evictions + 1

let store t slot value =
  let base = slot * t.arity in
  Array.blit t.scratch 0 t.keys base t.arity;
  t.values.(slot) <- value;
  Bytes.unsafe_set t.stamps slot (Char.unsafe_chr t.current);
  t.fresh <- t.fresh + 1;
  if 2 * t.fresh >= capacity t then advance_generation t

(* Probe-length distribution, recorded on the insert path only.  The
   lookup path is far too hot to instrument (it runs per contribution
   lookup); inserts happen once per genuine miss, where one guarded
   observe call is noise. *)
let[@inline] observe_probe_len i =
  if !Probe.observing then
    Probe.observe "fcache/probe_len" (float_of_int i)

let add_scratch t value =
  let h = hash t in
  let rec probe i victim =
    if i >= max_probe then begin
      (* window full of live strangers: overwrite the last slot *)
      observe_probe_len max_probe;
      store t (if victim >= 0 then victim else (h + max_probe - 1) land t.mask)
        value
    end
    else begin
      let slot = (h + i) land t.mask in
      let stamp = Char.code (Bytes.unsafe_get t.stamps slot) in
      if stamp = 0 then begin
        (* never-used slot: no live duplicate can sit beyond it *)
        observe_probe_len (i + 1);
        store t (if victim >= 0 then victim else slot) value
      end
      else if live t stamp then
        if keys_match t slot then begin
          t.values.(slot) <- value;
          if stamp <> t.current then
            Bytes.unsafe_set t.stamps slot (Char.unsafe_chr t.current)
        end
        else probe (i + 1) victim
      else probe (i + 1) (if victim >= 0 then victim else slot)
    end
  in
  probe 0 (-1)

let check_arity t expected name =
  if t.arity <> expected then
    invalid_arg
      (Printf.sprintf "Fcache.%s: table has arity %d" name t.arity)

let find3 t k0 k1 k2 =
  check_arity t 3 "find3";
  let s = t.scratch in
  s.(0) <- k0;
  s.(1) <- k1;
  s.(2) <- k2;
  find_scratch t

let add3 t k0 k1 k2 ~value =
  check_arity t 3 "add3";
  let s = t.scratch in
  s.(0) <- k0;
  s.(1) <- k1;
  s.(2) <- k2;
  add_scratch t value

let[@inline] find5 t k0 k1 k2 k3 k4 =
  check_arity t 5 "find5";
  let s = t.scratch in
  s.(0) <- k0;
  s.(1) <- k1;
  s.(2) <- k2;
  s.(3) <- k3;
  s.(4) <- k4;
  find_scratch t

let[@inline] add5 t k0 k1 k2 k3 k4 ~value =
  check_arity t 5 "add5";
  let s = t.scratch in
  s.(0) <- k0;
  s.(1) <- k1;
  s.(2) <- k2;
  s.(3) <- k3;
  s.(4) <- k4;
  add_scratch t value

let find6 t k0 k1 k2 k3 k4 k5 =
  check_arity t 6 "find6";
  let s = t.scratch in
  s.(0) <- k0;
  s.(1) <- k1;
  s.(2) <- k2;
  s.(3) <- k3;
  s.(4) <- k4;
  s.(5) <- k5;
  find_scratch t

let add6 t k0 k1 k2 k3 k4 k5 ~value =
  check_arity t 6 "add6";
  let s = t.scratch in
  s.(0) <- k0;
  s.(1) <- k1;
  s.(2) <- k2;
  s.(3) <- k3;
  s.(4) <- k4;
  s.(5) <- k5;
  add_scratch t value

let live_count t =
  let n = ref 0 in
  for slot = 0 to t.mask do
    let stamp = Char.code (Bytes.get t.stamps slot) in
    if stamp <> 0 && live t stamp then incr n
  done;
  !n

let label t = t.label

(* Aggregate (live, capacity, flips) per label across every registered
   instance — one row per distinct cache, merging the per-domain copies
   of a domain-local table.  O(total capacity); report path only. *)
let occupancy () =
  Mutex.lock registry_mutex;
  let tables = !registry in
  Mutex.unlock registry_mutex;
  let rows = ref [] in
  List.iter
    (fun t ->
      let live = live_count t and cap = capacity t in
      match List.assoc_opt t.label !rows with
      | Some (l, c, f) ->
          rows :=
            (t.label, (l + live, c + cap, f + t.flips))
            :: List.remove_assoc t.label !rows
      | None -> rows := (t.label, (live, cap, t.flips)) :: !rows)
    tables;
  List.sort compare
    (List.map (fun (name, (l, c, f)) -> (name, l, c, f)) !rows)
