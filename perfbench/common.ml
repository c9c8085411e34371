(* Shared pieces of the benchmark: the clock, order statistics, the
   in-memory span recorder of the traced runs, and the result record
   every workload returns. *)

module Events = Batsched_obs.Events

(* The monotonic clock the library's event stream stamps [t_ns] with,
   so request latencies can be read straight off the response stream. *)
let now_ns () = Int64.to_float (Events.now_ns ())

let ms_since t0 = (now_ns () -. t0) *. 1e-6

(* Growable float buffer for per-operation samples. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  (* [capacity] is allocated up front, so the harness's own memory does
     not vary with how many operations a run completes *)
  let create ?(capacity = 8192) () = { a = Array.make capacity 0.0; n = 0 }

  let add s v =
    if s.n = Array.length s.a then begin
      let b = Array.make (2 * s.n) 0.0 in
      Array.blit s.a 0 b 0 s.n;
      s.a <- b
    end;
    s.a.(s.n) <- v;
    s.n <- s.n + 1

  let count s = s.n
  let to_array s = Array.sub s.a 0 s.n
end

(* Linear interpolation between order statistics (type 7, the default
   of numpy and R).  [nan] on an empty sample. *)
let percentile values p =
  let a = Array.copy values in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let h = float_of_int (n - 1) *. p /. 100.0 in
    let lo = truncate h in
    let hi = Stdlib.min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median values = percentile values 50.0

(* The tail of a run's samples (in time order): the highest of p99 and
   p90 that has at least ten samples beyond it in each consecutive chunk
   of 1000 (p99) or 100 (p90) samples, taken per chunk, and the median
   over the chunks.  A single stall of the machine then moves one chunk,
   not the figure.  Returns (percentile, value); p50 of the whole run
   when there are fewer than 100 samples. *)
let tail values =
  let n = Array.length values in
  let p, chunk = if n >= 1000 then (99.0, 1000) else (90.0, 100) in
  if n < 100 then (50.0, median values)
  else
    let k = n / chunk in
    let per_chunk =
      Array.init k (fun c ->
          let lo = c * n / k and hi = (c + 1) * n / k in
          percentile (Array.sub values lo (hi - lo)) p)
    in
    (p, median per_chunk)

(* Peak resident set of this process, from the kernel's high-water
   mark.  Falls back to the OCaml heap's top size off Linux. *)
let peak_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d" (fun kb -> float_of_int kb /. 1024.0)
          | _ -> scan ()
        in
        scan ())
  in
  try from_proc ()
  with _ ->
    let st = Gc.quick_stat () in
    float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Reference speed of the machine.  The 2-vCPU virtual machines this
   benchmark was built on drift by 20-30% in speed over seconds to
   minutes, for any code (a fixed arithmetic loop included), which is
   far wider than the bounds the benchmark gates on.  So each run times
   a fixed allocation-free kernel that shares no code with the program,
   interleaved with the workload (about every 50 ms), and gated time
   samples are rescaled by [factor ()], the speed over the last 25
   kernel samples relative to a machine on which the kernel takes
   [reference_ns]: times are multiplied by it, rates divided.  The
   kernel mixes compare-and-branch work, dependent loads, float
   arithmetic and a 1 MB streaming store, the mix whose time tracked
   the solves' best on that machine.  The run's median factor is
   printed on the detail line, so the raw figures can be recovered. *)
module Speed = struct
  let keys = Array.init 512 (fun i -> (i * 7919) mod 512)
  let scratch = Array.make 512 0
  let stream = Array.make (1 lsl 17) 0

  (* one cycle through 16384 slots, in an order that defeats the
     prefetcher *)
  let next =
    let n = 16384 in
    let order = Array.init n Fun.id in
    let st = Random.State.make [| 17 |] in
    for i = n - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done;
    let next = Array.make n 0 in
    for i = 0 to n - 1 do
      next.(order.(i)) <- order.((i + 1) mod n)
    done;
    next

  let work () =
    Array.blit keys 0 scratch 0 (Array.length keys);
    Array.sort Int.compare scratch;
    let j = ref 0 in
    for _ = 1 to 1024 do
      j := next.(!j)
    done;
    let x = ref 1.0 in
    for i = 1 to 2048 do
      x := (!x *. 1.000001) +. (1e-9 *. float_of_int i)
    done;
    Array.fill stream 0 (Array.length stream) !j;
    !j + int_of_float !x + stream.(!j)

  (* Median kernel time on the reference machine (2 vCPUs, OCaml
     5.1.1), in ns. *)
  let reference_ns = 1.5e5

  (* timed on the second of two back-to-back runs, so the sample sees
     the kernel's own working set in cache rather than whatever the
     workload left there *)
  let time_kernel () =
    ignore (Sys.opaque_identity (work ()));
    let t0 = now_ns () in
    ignore (Sys.opaque_identity (work ()));
    now_ns () -. t0

  (* every sample of a domain, and the last 25 *)
  type ring = { mutable all : float list; recent : float array; mutable slot : int }

  let ring () = { all = []; recent = Array.make 25 Float.nan; slot = 0 }

  let record r t =
    r.all <- t :: r.all;
    r.recent.(r.slot) <- t;
    r.slot <- (r.slot + 1) mod Array.length r.recent

  let ring_factor r =
    let l = List.filter (fun x -> not (Float.is_nan x)) (Array.to_list r.recent) in
    reference_ns /. median (Array.of_list l)

  let main = ring () and helper = ring ()
  let last = ref Float.neg_infinity

  (* The kernel on [pool]'s helper domain, through a submitted job. *)
  let sample_helper pool =
    let t = Atomic.make Float.nan in
    Batsched_numeric.Pool.submit pool (fun () -> Atomic.set t (time_kernel ()));
    while Float.is_nan (Atomic.get t) do
      Domain.cpu_relax ()
    done;
    record helper (Atomic.get t)

  (* With [pool], the helper domain is sampled too, for work the two
     domains share. *)
  let sample ?pool () =
    record main (time_kernel ());
    Option.iter sample_helper pool;
    last := now_ns ()

  let maybe_sample ?pool () = if now_ns () -. !last > 50e6 then sample ?pool ()

  (* With [pool], the mean of the two domains' factors. *)
  let factor ?pool () =
    match pool with
    | None ->
        if main.all = [] then sample ();
        ring_factor main
    | Some _ ->
        if helper.all = [] then sample ?pool ();
        (ring_factor main +. ring_factor helper) /. 2.0

  let run_factor () = reference_ns /. median (Array.of_list main.all)
end

(* Set-up is timed [setup_repeats] times (each time rescaled by the
   speed kernel sampled just before it) and reported as the median; the
   last environment is the one the workload runs on, the earlier ones
   go to [discard].  The first repetition pays the cold caches.  The
   kernel's ring is filled first, so the first set-ups are rescaled by
   as many samples as the workload's times are. *)
let setup_repeats = 5

let timed_setup ~setup ~discard =
  for _ = 1 to Array.length Speed.main.Speed.recent do
    Speed.sample ()
  done;
  let times = Array.make setup_repeats 0.0 in
  let env = ref None in
  for i = 0 to setup_repeats - 1 do
    Option.iter discard !env;
    Speed.sample ();
    let t0 = now_ns () in
    env := Some (setup ());
    times.(i) <- (now_ns () -. t0) *. 1e-9 *. Speed.factor ()
  done;
  (Option.get !env, median times)

(* Run [f] on a freshly spawned domain, whose domain-local caches and
   work counters start empty: counts read there belong to [f] alone
   and repeat exactly from run to run. *)
let on_fresh_domain f = Domain.join (Domain.spawn f)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* The gated end-to-end metrics of a run, from speed-rescaled samples,
   and the figures the detail line adds to them. *)
let end_to_end ~setup_s ~ops_per_s ~lats ~goodput =
  let p, tail_ms = tail lats in
  ( [ m "setup_s" "s" setup_s;
      m "ops_per_s" "1/s" ops_per_s;
      m "latency_ms_p50" "ms" (median lats);
      m "latency_ms_tail" "ms" tail_ms;
      m "goodput_share" "share" goodput;
      m "peak_rss_mb" "MB" (peak_rss_mb ()) ],
    [ ("tail_percentile", p); ("speed", Speed.run_factor ()) ] )

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
  detail : (string * float) list;
      (** extra figures printed on the detail line, not gated *)
}

(* Span recorder for the traced runs.  Spans are opened around calls
   into the library's public functions, kept in memory in flat arrays,
   aggregated and written out when the run ends.  A span's self time is
   its duration minus the time its child spans cover. *)
module Trace = struct
  type t = {
    names : (string, int) Hashtbl.t;
    mutable labels : string array;
    mutable name : int array;
    mutable t0 : float array;
    mutable t1 : float array;
    mutable parent : int array;
    mutable n : int;
    mutable current : int;  (* open span, -1 at top level *)
  }

  let create () =
    { names = Hashtbl.create 16;
      labels = [||];
      name = Array.make 4096 0;
      t0 = Array.make 4096 0.0;
      t1 = Array.make 4096 0.0;
      parent = Array.make 4096 (-1);
      n = 0;
      current = -1 }

  let intern t s =
    match Hashtbl.find_opt t.names s with
    | Some i -> i
    | None ->
        let i = Array.length t.labels in
        Hashtbl.add t.names s i;
        t.labels <- Array.append t.labels [| s |];
        i

  let grow t =
    let cap = 2 * Array.length t.name in
    let ext a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 t.n;
      b
    in
    t.name <- ext t.name 0;
    t.t0 <- ext t.t0 0.0;
    t.t1 <- ext t.t1 0.0;
    t.parent <- ext t.parent (-1)

  let span t label f =
    if t.n = Array.length t.name then grow t;
    let i = t.n in
    t.n <- i + 1;
    t.name.(i) <- intern t label;
    t.parent.(i) <- t.current;
    t.current <- i;
    t.t0.(i) <- now_ns ();
    let r = f () in
    t.t1.(i) <- now_ns ();
    t.current <- t.parent.(i);
    r

  (* Per label: (calls, total self time in ms). *)
  let self_times t =
    let child = Array.make t.n 0.0 in
    for i = 0 to t.n - 1 do
      let p = t.parent.(i) in
      if p >= 0 then child.(p) <- child.(p) +. (t.t1.(i) -. t.t0.(i))
    done;
    let k = Array.length t.labels in
    let calls = Array.make k 0 and self = Array.make k 0.0 in
    for i = 0 to t.n - 1 do
      let l = t.name.(i) in
      calls.(l) <- calls.(l) + 1;
      self.(l) <- self.(l) +. (t.t1.(i) -. t.t0.(i) -. child.(i))
    done;
    fun label ->
      match Hashtbl.find_opt t.names label with
      | Some l -> (calls.(l), self.(l) *. 1e-6)
      | None -> (0, 0.0)

  (* One line per span: label, start (ns, relative to the first span),
     duration (ns), parent index (-1 at top level). *)
  let write t path =
    let oc = open_out path in
    let origin = if t.n > 0 then t.t0.(0) else 0.0 in
    for i = 0 to t.n - 1 do
      Printf.fprintf oc "%s\t%.0f\t%.0f\t%d\n" t.labels.(t.name.(i))
        (t.t0.(i) -. origin)
        (t.t1.(i) -. t.t0.(i))
        t.parent.(i)
    done;
    close_out oc
end

let out_dir = Filename.concat "perfbench" "out"

let out_path name =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  Filename.concat out_dir name

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Check a condition of the replay; a replay that diverges from the
   recorded run measures different work, so the run stops. *)
let require cond what = if not cond then failwith ("replay diverged: " ^ what)
