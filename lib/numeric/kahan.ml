type t = { total : float; compensation : float }

let zero = { total = 0.0; compensation = 0.0 }

let create x = { total = x; compensation = 0.0 }

(* Neumaier's variant: unlike plain Kahan it also compensates when the
   incoming term is larger in magnitude than the running total. *)
let add { total; compensation } x =
  let t = total +. x in
  let c =
    if Float.abs total >= Float.abs x then compensation +. ((total -. t) +. x)
    else compensation +. ((x -. t) +. total)
  in
  { total = t; compensation = c }

let sum { total; compensation } = total +. compensation

let sum_list xs = sum (List.fold_left add zero xs)

let sum_array xs = sum (Array.fold_left add zero xs)

let sum_fn n f =
  if n < 0 then invalid_arg "Kahan.sum_fn: negative count";
  let rec loop i acc = if i >= n then acc else loop (i + 1) (add acc (f i)) in
  sum (loop 0 zero)

(* Mutable variant for hot loops: both fields are floats, so the record
   is flat and [add] allocates nothing — unlike the immutable [t],
   whose per-[add] record allocation would defeat the zero-allocation
   contract of the batched sigma kernels. *)
module Acc = struct
  type t = { mutable total : float; mutable comp : float }

  let create () = { total = 0.0; comp = 0.0 }

  let reset a =
    a.total <- 0.0;
    a.comp <- 0.0

  let[@inline] add a x =
    let t = a.total +. x in
    a.comp <-
      a.comp
      +. (if Float.abs a.total >= Float.abs x then (a.total -. t) +. x
          else (x -. t) +. a.total);
    a.total <- t

  let sum a = a.total +. a.comp
end
