(* Persistent work-stealing executor.

   Earlier revisions spawned fresh domains on every parallel region and
   divided work by static striding.  That pays domain-spawn cost
   (~100us) per region — ruinous for window sweeps and multistart
   screens that open many small regions — and a static split leaves
   workers idle at the join barrier when item costs are skewed.  This
   version keeps one set of long-lived worker domains per pool and
   deals work through per-worker Chase–Lev deques:

   - The calling domain doubles as worker 0.  A region starts by
     pushing one [Chunk] covering the whole index range onto the
     caller's deque; whoever picks a chunk up splits it in half while
     it is above the region's grain, pushing the upper half back onto
     its own deque.  Thieves steal from the top — the oldest, hence
     largest, outstanding half — so lazy binary splitting doubles as
     steal-half scheduling with adaptive chunk size and no up-front
     partitioning.
   - Idle workers steal from victims drawn from a per-worker
     deterministic RNG, then park on a condition variable; pushes of
     split halves wake them only when someone is actually parked, so
     the steady state takes no syscalls.
   - Determinism: results are written at their input index, every item
     is executed exactly once, and exceptions are banked per item and
     re-raised in index order — which domain ran what never shows.

   The contract of [map_array]/[map_list] is unchanged from the
   fork-join version (see the .mli). *)

type worker_stat = {
  items : int;
  chunks : int;
  steals : int;
  jobs : int;
  busy_s : float;
}

(* Work-stealing deque (Chase–Lev).  The owner pushes and pops at the
   bottom; thieves CAS the top.  Cells are [option] atomics so no
   dummy element is needed.  Fixed capacity: the owner holds at most
   O(log n) split halves plus the initial seeds, far below 256; if a
   push ever finds the ring full the caller simply keeps the range and
   runs it inline, which is always correct. *)
module Deque : sig
  type 'a t

  val create : unit -> 'a t
  val push : 'a t -> 'a -> bool
  val pop : 'a t -> 'a option
  val steal : 'a t -> 'a option
end = struct
  let capacity = 256
  let mask = capacity - 1

  type 'a t = {
    cells : 'a option Atomic.t array;
    top : int Atomic.t;
    bottom : int Atomic.t;
  }

  let create () =
    { cells = Array.init capacity (fun _ -> Atomic.make None);
      top = Atomic.make 0;
      bottom = Atomic.make 0 }

  let push q v =
    let b = Atomic.get q.bottom and t = Atomic.get q.top in
    if b - t >= capacity - 1 then false
    else begin
      Atomic.set q.cells.(b land mask) (Some v);
      Atomic.set q.bottom (b + 1);
      true
    end

  let pop q =
    let b = Atomic.get q.bottom - 1 in
    Atomic.set q.bottom b;
    let t = Atomic.get q.top in
    if b < t then begin
      (* empty; restore *)
      Atomic.set q.bottom t;
      None
    end
    else if b > t then begin
      let c = q.cells.(b land mask) in
      let v = Atomic.get c in
      Atomic.set c None;
      v
    end
    else begin
      (* last element: race thieves for it via the top counter *)
      let won = Atomic.compare_and_set q.top t (t + 1) in
      Atomic.set q.bottom (t + 1);
      if won then begin
        let c = q.cells.(b land mask) in
        let v = Atomic.get c in
        Atomic.set c None;
        v
      end
      else None
    end

  let steal q =
    let t = Atomic.get q.top in
    let b = Atomic.get q.bottom in
    if b - t <= 0 then None
    else begin
      let c = q.cells.(t land mask) in
      let v = Atomic.get c in
      if Atomic.compare_and_set q.top t (t + 1) then begin
        (* we own index [t] now; clearing cannot clobber a fresh push
           because the owner rejects pushes at capacity - 1 *)
        Atomic.set c None;
        v
      end
      else None
    end
end

(* A parallel region: one [map_array]/[for_range] call.  [run_span]
   executes a half-open index range, catching item exceptions into the
   caller's result buffer; [remaining] counts unexecuted items;
   [participants] counts helper workers currently checked in, so the
   caller can wait for their Probe drains and obs hooks before
   returning — the fork-join version got the same guarantee from
   [Domain.join]. *)
type region = {
  run_span : int -> int -> unit;
  remaining : int Atomic.t;
  participants : int Atomic.t;
  grain : int;
  t0 : float;
  mu : Mutex.t;
  cv : Condition.t;
}

type task = Chunk of region * int * int | Job of (unit -> unit)

type wstat = {
  mutable st_items : int;
  mutable st_chunks : int;
  mutable st_steals : int;
  mutable st_jobs : int;
  mutable st_busy_s : float;
}

type exec = {
  slots : int;  (* requested degree, including the caller slot 0 *)
  helpers : int;  (* worker domains actually spawned (slots 1..helpers) *)
  deques : task Deque.t array;
  injector : task Queue.t;
  inj_lock : Mutex.t;
  park : Mutex.t;
  cond : Condition.t;
  wake_seq : int Atomic.t;
  idlers : int Atomic.t;
  stop : bool Atomic.t;
  region_lock : Mutex.t;  (* serializes map regions across domains *)
  stats : wstat array;
  rngs : Rng.t array;  (* per-slot victim choice *)
  mutable domains : unit Domain.t list;
}

type state = Idle | Running of exec | Dead

type t = { requested : int; lock : Mutex.t; mutable state : state }

let sequential = { requested = 1; lock = Mutex.create (); state = Dead }

let create size =
  if size < 1 then invalid_arg "Pool.create: size < 1";
  { requested = size; lock = Mutex.create (); state = Idle }

let recommended () = Domain.recommended_domain_count ()

let create_recommended () = create (recommended ())

let size t = t.requested

(* Set while a domain is executing region work or a submitted job, so
   nested [map] calls degrade to the sequential path instead of
   oversubscribing the machine (and so the worker-count arithmetic
   stays deterministic). *)
let inside_region : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Which worker slot this domain occupies within the current region;
   0 outside any region (the calling domain doubles as worker 0).
   Observability only — telemetry tags records with it. *)
let current_worker : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let worker_index () = Domain.DLS.get current_worker

(* Observability hooks, run inside each worker domain around its share
   of a parallel region or a submitted job.  [Batsched_obs.Sink]
   installs hooks that tag the worker's trace track and flush its span
   buffer at region joins; the default hooks do nothing. *)
let worker_start : (int -> unit) ref = ref (fun _ -> ())

let worker_finish : (int -> unit) ref = ref (fun _ -> ())

let set_worker_hooks ~on_start ~on_finish =
  worker_start := on_start;
  worker_finish := on_finish

(* Test-only: an injected delay run before each chunk, to dilate chunk
   execution enough that steals reliably happen even on few cores. *)
let task_delay : (unit -> unit) option ref = ref None

let set_task_delay d = task_delay := d

(* Helper domains alive across all pools of the process, kept well
   under the runtime's ~128-domain ceiling.  A pool that cannot get
   its full complement spawns fewer helpers (possibly none) and stays
   correct — regions just fan out less. *)
let max_helper_domains = 96

let helper_budget = Atomic.make max_helper_domains

let rec take_budget want =
  if want <= 0 then 0
  else
    let avail = Atomic.get helper_budget in
    if avail <= 0 then 0
    else
      let take = Stdlib.min want avail in
      if Atomic.compare_and_set helper_budget avail (avail - take) then take
      else take_budget want

let zero_stat () =
  { st_items = 0; st_chunks = 0; st_steals = 0; st_jobs = 0; st_busy_s = 0.0 }

let now () = Unix.gettimeofday ()

let wake_all ex =
  Atomic.incr ex.wake_seq;
  Mutex.lock ex.park;
  Condition.broadcast ex.cond;
  Mutex.unlock ex.park

let wake_if_idle ex = if Atomic.get ex.idlers > 0 then wake_all ex

(* Execute [lo, hi): split the range in half while above the grain,
   pushing upper halves onto our own deque for thieves, then run the
   leading piece.  Returns the span's wall time and whether this
   chunk zeroed the region. *)
let execute_chunk ex w r lo0 hi0 =
  let dq = ex.deques.(w) in
  let lo = ref lo0 and hi = ref hi0 in
  (try
     while !hi - !lo > r.grain do
       let mid = !lo + ((!hi - !lo) / 2) in
       if Deque.push dq (Chunk (r, mid, !hi)) then begin
         hi := mid;
         wake_if_idle ex
       end
       else raise Exit (* ring full: run the rest inline *)
     done
   with Exit -> ());
  (match !task_delay with Some d -> d () | None -> ());
  let t1 = now () in
  r.run_span !lo !hi;
  let dt = now () -. t1 in
  let st = ex.stats.(w) in
  let count = !hi - !lo in
  st.st_chunks <- st.st_chunks + 1;
  st.st_items <- st.st_items + count;
  st.st_busy_s <- st.st_busy_s +. dt;
  let before = Atomic.fetch_and_add r.remaining (-count) in
  (dt, before - count = 0)

let take_injector ex =
  Mutex.lock ex.inj_lock;
  let t = if Queue.is_empty ex.injector then None else Some (Queue.pop ex.injector) in
  Mutex.unlock ex.inj_lock;
  t

let steal_task ex w rng =
  if ex.slots <= 1 then None
  else
    let rec go k =
      if k = 0 then None
      else
        let v = Rng.int rng ex.slots in
        if v = w then go (k - 1)
        else
          match Deque.steal ex.deques.(v) with
          | Some _ as t ->
              ex.stats.(w).st_steals <- ex.stats.(w).st_steals + 1;
              let p = Probe.local () in
              p.Probe.pool_steals <- p.Probe.pool_steals + 1;
              t
          | None -> go (k - 1)
    in
    go (2 * ex.slots)

(* ------------------------------------------------------------------ *)
(* Worker domains                                                      *)

let worker_loop ex w =
  let rng = ex.rngs.(w) in
  (* the region this worker is checked into, with its busy-time
     accumulator; at most one at a time because regions are serialized
     and a region's caller returns only after every participant has
     checked out *)
  let joined : (region * float ref) option ref = ref None in
  let checkout () =
    match !joined with
    | None -> ()
    | Some (r, busy) ->
        joined := None;
        if !Probe.observing then begin
          let wall = now () -. r.t0 in
          if wall > 0.0 then
            Probe.observe "pool/occupancy" (Float.min 1.0 (!busy /. wall))
        end;
        Probe.drain_local ();
        !worker_finish w;
        Domain.DLS.set current_worker 0;
        Domain.DLS.set inside_region false;
        ignore (Atomic.fetch_and_add r.participants (-1));
        (* wake the region's caller: it waits on [cv] for both
           [remaining] and [participants] to hit zero *)
        Mutex.lock r.mu;
        Condition.broadcast r.cv;
        Mutex.unlock r.mu
  in
  let checkin r =
    joined := Some (r, ref 0.0);
    Atomic.incr r.participants;
    Domain.DLS.set inside_region true;
    Domain.DLS.set current_worker w;
    !worker_start w
  in
  let run_chunk r lo hi =
    (match !joined with
    | Some (r0, _) when r0 == r -> ()
    | Some _ ->
        checkout ();
        checkin r
    | None -> checkin r);
    let dt, finished = execute_chunk ex w r lo hi in
    (match !joined with Some (_, b) -> b := !b +. dt | None -> ());
    if finished then checkout ()
  in
  let run_job fn =
    let st = ex.stats.(w) in
    st.st_jobs <- st.st_jobs + 1;
    Domain.DLS.set inside_region true;
    Domain.DLS.set current_worker w;
    !worker_start w;
    let t1 = now () in
    (* jobs own their exceptions (see the .mli); anything escaping is
       dropped rather than tearing the worker down *)
    (try fn () with _ -> ());
    st.st_busy_s <- st.st_busy_s +. (now () -. t1);
    Probe.drain_local ();
    !worker_finish w;
    Domain.DLS.set current_worker 0;
    Domain.DLS.set inside_region false
  in
  let find () =
    match Deque.pop ex.deques.(w) with
    | Some _ as t -> t
    | None -> (
        (* while checked into a region, skip the injector: picking up a
           long job there would stall the region's join *)
        let from_injector = if !joined = None then take_injector ex else None in
        match from_injector with
        | Some _ as t -> t
        | None -> steal_task ex w rng)
  in
  while not (Atomic.get ex.stop) do
    let seen = Atomic.get ex.wake_seq in
    match find () with
    | Some (Chunk (r, lo, hi)) -> run_chunk r lo hi
    | Some (Job fn) -> run_job fn
    | None ->
        checkout ();
        Mutex.lock ex.park;
        if Atomic.get ex.wake_seq = seen && not (Atomic.get ex.stop) then begin
          Atomic.incr ex.idlers;
          Condition.wait ex.cond ex.park;
          Atomic.decr ex.idlers
        end;
        Mutex.unlock ex.park
  done;
  checkout ();
  Probe.drain_local ()

let make_exec pool helpers =
  let slots = pool.requested in
  let ex =
    { slots;
      helpers;
      deques = Array.init slots (fun _ -> Deque.create ());
      injector = Queue.create ();
      inj_lock = Mutex.create ();
      park = Mutex.create ();
      cond = Condition.create ();
      wake_seq = Atomic.make 0;
      idlers = Atomic.make 0;
      stop = Atomic.make false;
      region_lock = Mutex.create ();
      stats = Array.init slots (fun _ -> zero_stat ());
      rngs = Array.init slots (fun w -> Rng.create (0x5eed0 + w));
      domains = [] }
  in
  ex.domains <-
    List.init helpers (fun k -> Domain.spawn (fun () -> worker_loop ex (k + 1)));
  ex

(* The executor is built on first parallel use, not in [create]: a
   pool value stays cheap to make and store in a config, and purely
   sequential programs never spawn a domain. *)
let ensure_exec pool =
  Mutex.lock pool.lock;
  let r =
    match pool.state with
    | Running ex -> Some ex
    | Dead -> None
    | Idle ->
        let helpers = take_budget (pool.requested - 1) in
        if helpers = 0 then None (* budget exhausted: run sequentially *)
        else begin
          let ex = make_exec pool helpers in
          pool.state <- Running ex;
          Some ex
        end
  in
  Mutex.unlock pool.lock;
  r

let shutdown pool =
  Mutex.lock pool.lock;
  (match pool.state with
  | Dead -> ()
  | Idle -> pool.state <- Dead
  | Running ex ->
      Atomic.set ex.stop true;
      wake_all ex;
      List.iter Domain.join ex.domains;
      ignore (Atomic.fetch_and_add helper_budget ex.helpers);
      pool.state <- Dead);
  Mutex.unlock pool.lock

let with_pool size f =
  let pool = create size in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let live_workers pool =
  Mutex.lock pool.lock;
  let n = match pool.state with Running ex -> ex.helpers | _ -> 0 in
  Mutex.unlock pool.lock;
  n

let worker_stats pool =
  Mutex.lock pool.lock;
  let stats =
    match pool.state with
    | Running ex ->
        Array.map
          (fun s ->
            { items = s.st_items;
              chunks = s.st_chunks;
              steals = s.st_steals;
              jobs = s.st_jobs;
              busy_s = s.st_busy_s })
          ex.stats
    | _ -> [||]
  in
  Mutex.unlock pool.lock;
  stats

(* ------------------------------------------------------------------ *)
(* Regions                                                             *)

(* Caller side of a region: keep executing chunks (own deque first,
   then steals) until every item is done, sleeping on the region's
   condition variable when no work is visible — residual chunks are
   then in the hands of live workers, and whichever zeroes [remaining]
   broadcasts on checkout. *)
let drive ex r =
  let rng = ex.rngs.(0) in
  let busy = ref 0.0 in
  let rec loop () =
    if Atomic.get r.remaining > 0 then begin
      let found =
        match Deque.pop ex.deques.(0) with
        | Some _ as t -> t
        | None -> steal_task ex 0 rng
      in
      (match found with
      | Some (Chunk (r', lo, hi)) ->
          let dt, _ = execute_chunk ex 0 r' lo hi in
          if r' == r then busy := !busy +. dt
      | Some (Job _) ->
          (* jobs never sit on deques, only in the injector *)
          assert false
      | None ->
          Mutex.lock r.mu;
          if Atomic.get r.remaining > 0 then Condition.wait r.cv r.mu;
          Mutex.unlock r.mu);
      loop ()
    end
  in
  loop ();
  !busy

let wait_participants r =
  Mutex.lock r.mu;
  while Atomic.get r.participants > 0 do
    Condition.wait r.cv r.mu
  done;
  Mutex.unlock r.mu

(* How many chunks per slot the grain aims for.  8 keeps scheduling
   overhead negligible while leaving enough slack for stealing to
   rebalance a 10x cost skew. *)
let chunk_factor = 8

let run_region ex ~n ~run_span =
  Mutex.lock ex.region_lock;
  let r =
    { run_span;
      remaining = Atomic.make n;
      participants = Atomic.make 0;
      grain = Stdlib.max 1 (n / ((ex.helpers + 1) * chunk_factor));
      t0 = now ();
      mu = Mutex.create ();
      cv = Condition.create () }
  in
  Domain.DLS.set inside_region true;
  Domain.DLS.set current_worker 0;
  !worker_start 0;
  let finally () =
    (* mirror the worker checkout: bank the caller's counters and let
       the observability layer flush, exactly as the fork-join version
       did for its slice 0 *)
    Probe.drain_local ();
    Domain.DLS.set current_worker 0;
    !worker_finish 0;
    Domain.DLS.set inside_region false;
    Mutex.unlock ex.region_lock
  in
  Fun.protect ~finally (fun () ->
      ignore (Deque.push ex.deques.(0) (Chunk (r, 0, n)));
      wake_all ex;
      let busy = drive ex r in
      wait_participants r;
      if !Probe.observing then begin
        let wall = now () -. r.t0 in
        if wall > 0.0 then
          Probe.observe "pool/occupancy" (Float.min 1.0 (busy /. wall))
      end)

let region_map ex f xs n =
  let results = Array.make n None in
  let run_span lo hi =
    for i = lo to hi - 1 do
      results.(i) <- Some (try Ok (f xs.(i)) with e -> Error e)
    done
  in
  run_region ex ~n ~run_span;
  results

(* Surface results in input order; the first stored exception (in
   index order, matching what a sequential map would have hit first)
   is re-raised. *)
let unwrap = function
  | Some (Ok v) -> v
  | Some (Error e) -> raise e
  | None -> assert false

let map_array pool f xs =
  let n = Array.length xs in
  let workers = Stdlib.min pool.requested n in
  let probe = Probe.local () in
  probe.Probe.pool_tasks <- probe.Probe.pool_tasks + n;
  if workers <= 1 || Domain.DLS.get inside_region then Array.map f xs
  else
    match ensure_exec pool with
    | None -> Array.map f xs
    | Some ex ->
        probe.Probe.pool_regions <- probe.Probe.pool_regions + 1;
        Array.map unwrap (region_map ex f xs n)

let map_list pool f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ ->
      let probe = Probe.local () in
      let go_direct () =
        (* direct path: no array round-trip; [rev_map] keeps it
           tail-recursive for long lists *)
        List.rev (List.rev_map f xs)
      in
      if pool.requested <= 1 || Domain.DLS.get inside_region then begin
        probe.Probe.pool_tasks <- probe.Probe.pool_tasks + List.length xs;
        go_direct ()
      end
      else begin
        let arr = Array.of_list xs in
        let n = Array.length arr in
        probe.Probe.pool_tasks <- probe.Probe.pool_tasks + n;
        match ensure_exec pool with
        | None -> go_direct ()
        | Some ex ->
            probe.Probe.pool_regions <- probe.Probe.pool_regions + 1;
            let results = region_map ex f arr n in
            (* surface the smallest-index exception first, then build
               the list back-to-front without an intermediate array *)
            Array.iter
              (function Some (Error e) -> raise e | _ -> ())
              results;
            let rec build i acc =
              if i < 0 then acc else build (i - 1) (unwrap results.(i) :: acc)
            in
            build (n - 1) []
      end

let for_range pool ~n f =
  if n <= 0 then ()
  else begin
    let probe = Probe.local () in
    probe.Probe.pool_tasks <- probe.Probe.pool_tasks + n;
    let workers = Stdlib.min pool.requested n in
    if workers <= 1 || Domain.DLS.get inside_region then f 0 n
    else
      match ensure_exec pool with
      | None -> f 0 n
      | Some ex ->
          probe.Probe.pool_regions <- probe.Probe.pool_regions + 1;
          (* keep the span exception of the smallest start index — the
             first failure a sequential left-to-right sweep would hit *)
          let err_mu = Mutex.create () in
          let err = ref None in
          let run_span lo hi =
            try f lo hi
            with e ->
              Mutex.lock err_mu;
              (match !err with
              | Some (lo0, _) when lo0 <= lo -> ()
              | _ -> err := Some (lo, e));
              Mutex.unlock err_mu
          in
          run_region ex ~n ~run_span;
          (match !err with Some (_, e) -> raise e | None -> ())
  end

let submit pool fn =
  match ensure_exec pool with
  | Some ex when ex.helpers > 0 ->
      Mutex.lock ex.inj_lock;
      Queue.push (Job fn) ex.injector;
      Mutex.unlock ex.inj_lock;
      wake_all ex
  | _ ->
      (* no helpers: run the job inline, with the same degradation of
         nested parallel regions as on a worker *)
      let saved = Domain.DLS.get inside_region in
      Domain.DLS.set inside_region true;
      Fun.protect
        ~finally:(fun () -> Domain.DLS.set inside_region saved)
        (fun () -> try fn () with _ -> ())
