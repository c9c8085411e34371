open Batsched_numeric

type t = {
  model : Model.t;
  pool : Pool.t;
  mutable pop : int;
  mutable n : int;
  mutable currents : float array;   (* pop rows of n, row-major *)
  mutable durations : float array;
  mutable tails : float array;
  mutable sigmas : float array;     (* one per candidate *)
  mutable finishes : float array;
}

let create ?(pool = Pool.sequential) model =
  { model;
    pool;
    pop = 0;
    n = 0;
    currents = [||];
    durations = [||];
    tails = [||];
    sigmas = [||];
    finishes = [||] }

let model t = t.model

let pop t = t.pop

let width t = t.n

let ensure_capacity t ~pop ~n =
  let cells = pop * n in
  if Array.length t.currents < cells then begin
    let cap = ref (Stdlib.max 16 (Array.length t.currents)) in
    while !cap < cells do
      cap := !cap * 2
    done;
    t.currents <- Array.make !cap 0.0;
    t.durations <- Array.make !cap 0.0;
    t.tails <- Array.make !cap 0.0
  end;
  if Array.length t.sigmas < pop then begin
    let cap = ref (Stdlib.max 8 (Array.length t.sigmas)) in
    while !cap < pop do
      cap := !cap * 2
    done;
    t.sigmas <- Array.make !cap 0.0;
    t.finishes <- Array.make !cap 0.0
  end

let check_point current duration =
  if not (Float.is_finite current && Float.is_finite duration) then
    invalid_arg "Sigma_batch.eval: non-finite interval field";
  if current < 0.0 then invalid_arg "Sigma_batch.eval: negative current";
  if duration < 0.0 then invalid_arg "Sigma_batch.eval: negative duration"

(* Sequential-sigma fallback for one candidate row: build the row's
   profile and go through the model's full path.  O(n) plus a profile
   allocation per candidate — the price of a model without a kernel. *)
let fallback_row t p =
  let profile =
    Profile.sequential_arrays ~currents:t.currents ~durations:t.durations
      ~pos:(p * t.n) ~len:t.n
  in
  t.sigmas.(p) <- Model.sigma_end t.model profile

let run_range t lo hi =
  match t.model.Model.batch with
  | Some b ->
      b.Model.batch_run ~n:t.n ~currents:t.currents ~durations:t.durations
        ~tails:t.tails ~sigmas:t.sigmas ~lo ~hi
  | None ->
      for p = lo to hi - 1 do
        fallback_row t p
      done

let eval t ~pop ~n ~current ~duration =
  if pop < 0 then invalid_arg "Sigma_batch.eval: negative population";
  if n < 0 then invalid_arg "Sigma_batch.eval: negative width";
  ensure_capacity t ~pop ~n;
  t.pop <- pop;
  t.n <- n;
  for p = 0 to pop - 1 do
    let base = p * n in
    for k = 0 to n - 1 do
      let c = current p k and d = duration p k in
      check_point c d;
      t.currents.(base + k) <- c;
      t.durations.(base + k) <- d
    done;
    (* plain backward adds: [tail_k +. D_k] is bit-equal to
       [tail_{k-1}], the telescoping the kernels rely on *)
    if n > 0 then begin
      t.tails.(base + n - 1) <- 0.0;
      for k = n - 2 downto 0 do
        t.tails.(base + k) <- t.durations.(base + k + 1) +. t.tails.(base + k + 1)
      done;
      t.finishes.(p) <- t.durations.(base) +. t.tails.(base)
    end
    else t.finishes.(p) <- 0.0;
    t.sigmas.(p) <- 0.0
  done;
  let probe = Probe.local () in
  probe.Probe.batch_evals <- probe.Probe.batch_evals + 1;
  (match t.model.Model.batch with
  | Some _ -> probe.Probe.batch_candidates <- probe.Probe.batch_candidates + pop
  | None -> probe.Probe.batch_fallbacks <- probe.Probe.batch_fallbacks + pop);
  let workers = Stdlib.min (Pool.size t.pool) pop in
  if workers <= 1 then run_range t 0 pop
  else
    (* adaptive candidate spans; disjoint [sigmas] indices make the
       cross-domain writes race-free.  [for_range] lets the pool split
       and steal spans instead of committing to pre-strided shards, so
       skewed per-candidate costs rebalance. *)
    Pool.for_range t.pool ~n:pop (fun lo hi -> run_range t lo hi)

let sigma t p =
  if p < 0 || p >= t.pop then invalid_arg "Sigma_batch.sigma: out of range";
  t.sigmas.(p)

let finish t p =
  if p < 0 || p >= t.pop then invalid_arg "Sigma_batch.finish: out of range";
  t.finishes.(p)
