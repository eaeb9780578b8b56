(* Order statistics over float samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [q] in 0..1; 0.0 on no samples. *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 1 (min n rank) - 1)

(* Interpolated median: the mean of the two middle samples on even
   counts, so a two-pass run reports the mean of its passes. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the default "exclusive" method), which is how run-to-run spread is
   judged against a metric's bound. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (0.0, 0.0, 0.0)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

(* Distance between the first and third quartile as a share of the
   median. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2

let sum = List.fold_left ( +. ) 0.0

(* [num / den], or 0 when nothing was attempted. *)
let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
