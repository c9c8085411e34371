type interval = { start : float; duration : float; current : float }

(* Struct-of-arrays representation: three unboxed float arrays indexed
   by interval, sorted by start, non-overlapping.  Hot consumers
   (sigma evaluators) index the arrays through [start] / [duration] /
   [current] or walk them via [fold_until]; [intervals] materializes
   the record list for cold callers. *)
type t = {
  starts : float array;
  durations : float array;
  currents : float array;
}

let empty = { starts = [||]; durations = [||]; currents = [||] }

let num_intervals t = Array.length t.starts

let check_interval (start, duration, current) =
  if not (Float.is_finite start && Float.is_finite duration && Float.is_finite current)
  then invalid_arg "Profile: non-finite interval field";
  if start < 0.0 then invalid_arg "Profile: negative start time";
  if duration < 0.0 then invalid_arg "Profile: negative duration";
  if current < 0.0 then invalid_arg "Profile: negative current"

(* [triples] must already be sorted by start and free of zero-duration
   entries; packs without further checks. *)
let pack_sorted triples =
  let n = List.length triples in
  let starts = Array.make n 0.0 in
  let durations = Array.make n 0.0 in
  let currents = Array.make n 0.0 in
  List.iteri
    (fun i (s, d, c) ->
      starts.(i) <- s;
      durations.(i) <- d;
      currents.(i) <- c)
    triples;
  { starts; durations; currents }

let of_intervals triples =
  List.iter check_interval triples;
  let kept = List.filter (fun (_, d, _) -> d > 0.0) triples in
  let sorted = List.sort (fun (a, _, _) (b, _, _) -> compare a b) kept in
  let rec check_overlap = function
    | (s1, d1, _) :: ((s2, _, _) :: _ as rest) ->
        (* allow touching intervals; tiny tolerance for float noise *)
        if s1 +. d1 > s2 +. 1e-9 then invalid_arg "Profile: overlapping intervals"
        else check_overlap rest
    | [ _ ] | [] -> ()
  in
  check_overlap sorted;
  pack_sorted sorted

let sequential_arrays ~currents ~durations ~pos ~len =
  if
    pos < 0 || len < 0
    || pos + len > Array.length currents
    || pos + len > Array.length durations
  then invalid_arg "Profile.sequential_arrays: range out of bounds";
  let starts = Array.make len 0.0 in
  let ds = Array.make len 0.0 in
  let cs = Array.make len 0.0 in
  let kept = ref 0 in
  let clock = ref 0.0 in
  for i = pos to pos + len - 1 do
    let current = currents.(i) and duration = durations.(i) in
    if duration < 0.0 then invalid_arg "Profile.sequential: negative duration";
    if current < 0.0 then invalid_arg "Profile.sequential: negative current";
    if
      not
        (Float.is_finite !clock && Float.is_finite duration
       && Float.is_finite current)
    then invalid_arg "Profile: non-finite interval field";
    if duration > 0.0 then begin
      starts.(!kept) <- !clock;
      ds.(!kept) <- duration;
      cs.(!kept) <- current;
      incr kept
    end;
    clock := !clock +. duration
  done;
  if !kept = len then { starts; durations = ds; currents = cs }
  else
    { starts = Array.sub starts 0 !kept;
      durations = Array.sub ds 0 !kept;
      currents = Array.sub cs 0 !kept }

let sequential pairs =
  let currents = Array.of_list (List.map fst pairs) in
  let durations = Array.of_list (List.map snd pairs) in
  sequential_arrays ~currents ~durations ~pos:0 ~len:(Array.length currents)

let constant ~current ~duration = of_intervals [ (0.0, duration, current) ]

let with_idle t ~after ~idle =
  if idle < 0.0 then invalid_arg "Profile.with_idle: negative idle";
  { t with
    starts =
      Array.map (fun s -> if s >= after then s +. idle else s) t.starts }

let interval t i =
  { start = t.starts.(i); duration = t.durations.(i); current = t.currents.(i) }

let[@inline] start t i = t.starts.(i)

let[@inline] duration t i = t.durations.(i)

let[@inline] current t i = t.currents.(i)

let intervals t = List.init (num_intervals t) (interval t)

let fold_until t ~at ~init ~f =
  let n = num_intervals t in
  let rec go i acc =
    if i >= n then acc
    else
      let s = t.starts.(i) in
      if s >= at then acc (* sorted by start: nothing later overlaps *)
      else
        let d = t.durations.(i) in
        let d = if s +. d <= at then d else at -. s in
        go (i + 1) (f acc ~start:s ~duration:d ~current:t.currents.(i))
  in
  go 0 init

let length t =
  let l = ref 0.0 in
  for i = 0 to num_intervals t - 1 do
    l := Float.max !l (t.starts.(i) +. t.durations.(i))
  done;
  !l

let total_charge t =
  Batsched_numeric.Kahan.sum_fn (num_intervals t) (fun i ->
      t.currents.(i) *. t.durations.(i))

let truncate t ~at =
  of_intervals
    (List.rev
       (fold_until t ~at ~init:[] ~f:(fun acc ~start ~duration ~current ->
            (start, duration, current) :: acc)))

let superpose ps =
  let all = List.concat_map intervals ps in
  if all = [] then empty
  else begin
    (* breakpoints = every interval edge; between consecutive
       breakpoints the total current is constant *)
    let edges =
      List.concat_map (fun iv -> [ iv.start; iv.start +. iv.duration ]) all
      |> List.sort_uniq compare
    in
    let total_at t =
      List.fold_left
        (fun acc iv ->
          if t >= iv.start -. 1e-12 && t < iv.start +. iv.duration -. 1e-12
          then acc +. iv.current
          else acc)
        0.0 all
    in
    let rec segments = function
      | a :: (b :: _ as rest) ->
          let mid = 0.5 *. (a +. b) in
          let current = total_at mid in
          if current > 0.0 then (a, b -. a, current) :: segments rest
          else segments rest
      | [ _ ] | [] -> []
    in
    of_intervals (segments edges)
  end

let peak_current t = Array.fold_left Float.max 0.0 t.currents

let pp fmt t =
  if num_intervals t = 0 then Format.fprintf fmt "(empty profile)"
  else
    for i = 0 to num_intervals t - 1 do
      Format.fprintf fmt "[%8.2f .. %8.2f] %8.1f mA@."
        t.starts.(i)
        (t.starts.(i) +. t.durations.(i))
        t.currents.(i)
    done
