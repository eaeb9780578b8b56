(* The moving-average filter of Section IV.A (Figure 2): a pipelined
   tree of adders compared against a direct combinational specification
   whose result is delayed to match the pipeline depth.

   Structure for window depth k = 2^L over [sample_width]-bit samples:

   - a shared input-sample shift register W_0..W_{k-1} (W_0 newest);
   - implementation: adder-tree layers A_l (l = 1..L), layer l holding
     k/2^l registers of width [sample_width]+l, with
     A_{l,j}' = A_{l-1,2j} + A_{l-1,2j+1} (layer 0 = the window);
     output = A_L >> L (the "L-bit discard");
   - specification: a delay FIFO D_1..D_L of full window sums,
     D_1' = sum of the window, D_l' = D_{l-1}; output = D_L >> L.

   Property: the two outputs agree (one conjunct per output bit).
   Assisting invariants (Section IV.A): for every layer l, the layer sum
   equals the corresponding delay-FIFO entry, sum_j A_{l,j} = D_l --
   exactly the lemmas the paper says users had to supply and the new
   policy derives automatically.

   All datapath words are allocated with bit-slices interleaved.

   [bug] makes the first layer-1 adder double W_0 instead of adding
   W_1, planting a real violation. *)

type params = { depth : int; sample_width : int; assisted : bool; bug : bool }

let default = { depth = 4; sample_width = 8; assisted = false; bug = false }

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

let name p =
  Printf.sprintf "avg-filter(depth=%d%s%s)" p.depth
    (if p.assisted then ",assisted" else "")
    (if p.bug then ",bug" else "")

type handles = {
  window : Fsm.Space.word array;
  layers : Fsm.Space.word array array; (* layers.(l-1) = layer l *)
  dfifo : Fsm.Space.word array;
  x : int array;
  lemmas : Bdd.t list;
      (* the per-layer assisting invariants, always computed so callers
         can compare them with automatically derived ones *)
}

let make_full p =
  let k = p.depth and w = p.sample_width in
  let levels = log2 k in
  if k <> 1 lsl levels || levels < 1 then
    invalid_arg
      (Printf.sprintf "the filter's depth must be a power of two (>= 2), not %d"
         k);
  let sum_width = w + levels in
  let sp = Fsm.Space.create ~cache_budget:8_000_000 () in
  (* Input sample at the top of the order, then one interleaved
     allocation covering every datapath word. *)
  let x_bits = Fsm.Space.input_word ~name:"x" sp ~width:w in
  let specs =
    List.init k (fun i -> (Printf.sprintf "W%d" i, w))
    @ List.concat
        (List.init levels (fun l0 ->
             let l = l0 + 1 in
             List.init (k lsr l) (fun j ->
                 (Printf.sprintf "A%d_%d" l j, w + l))))
    @ List.init levels (fun l0 -> (Printf.sprintf "D%d" (l0 + 1), sum_width))
  in
  let words = Fsm.Space.interleaved_words_mixed sp specs in
  let window = Array.sub words 0 k in
  let layer l =
    (* words index of A_{l,0}: k + sum_{m<l} k/2^m words. *)
    let rec offset m acc = if m = l then acc else offset (m + 1) (acc + (k lsr m)) in
    let base = k + offset 1 0 in
    Array.sub words base (k lsr l)
  in
  let dfifo = Array.sub words (Array.length words - levels) levels in
  let man = Fsm.Space.man sp in
  let x = Fsm.Space.input_vec sp x_bits in
  let cur = Fsm.Space.cur_vec sp in
  let word_assigns word value =
    assert (Array.length word = Bvec.width value);
    List.init (Array.length word) (fun b -> (word.(b), Bvec.get value b))
  in
  (* Window shift. *)
  let window_assigns =
    List.concat
      (List.init k (fun i ->
           let src = if i = 0 then x else cur window.(i - 1) in
           word_assigns window.(i) src))
  in
  (* Adder tree. *)
  let tree_assigns =
    List.concat
      (List.init levels (fun l0 ->
           let l = l0 + 1 in
           let prev j =
             if l = 1 then cur window.(j) else cur (layer (l - 1)).(j)
           in
           List.concat
             (List.init (k lsr l) (fun j ->
                  let a = prev (2 * j) in
                  let b =
                    if p.bug && l = 1 && j = 0 then prev 0 (* BUG: doubles W0 *)
                    else prev ((2 * j) + 1)
                  in
                  word_assigns (layer l).(j) (Bvec.add_ext man a b)))))
  in
  (* Specification delay FIFO. *)
  let window_sum =
    Array.fold_left
      (fun acc wd ->
        Bvec.add man acc (Bvec.zero_extend man ~width:sum_width (cur wd)))
      (Bvec.zero man ~width:sum_width)
      window
  in
  let dfifo_assigns =
    List.concat
      (List.init levels (fun l0 ->
           let src = if l0 = 0 then window_sum else cur dfifo.(l0 - 1) in
           word_assigns dfifo.(l0) src))
  in
  let assigns = window_assigns @ tree_assigns @ dfifo_assigns in
  let trans = Fsm.Trans.make sp ~assigns in
  let init =
    Bdd.conj man
      (Array.to_list words |> List.map (fun wd -> Bvec.is_zero man (cur wd)))
  in
  let out_impl =
    Bvec.shift_right_const man ~by:levels (cur (layer levels).(0))
  in
  let out_spec =
    Bvec.shift_right_const man ~by:levels (cur dfifo.(levels - 1))
  in
  (* One output-equality conjunct.  The paper's Table 2 shows ICI's node
     count coinciding with Bkwd's at depth 4 (both 490) and Table 1c
     lists a 45-node conjunct: the property was supplied as a single
     (small, interleaved) equality BDD, which is also what makes the
     automatic policy derive the per-layer lemmas rather than drown in
     per-bit fragments. *)
  let good = [ Bvec.eq man out_impl out_spec ] in
  let lemmas =
    List.init levels (fun l0 ->
        let l = l0 + 1 in
        let layer_sum =
          Array.fold_left
            (fun acc wd ->
              Bvec.add man acc
                (Bvec.zero_extend man ~width:sum_width (cur wd)))
            (Bvec.zero man ~width:sum_width)
            (layer l)
        in
        Bvec.eq man layer_sum (cur dfifo.(l0)))
  in
  let assisting = if p.assisted then lemmas else [] in
  ( Mc.Model.make ~assisting ~name:(name p) ~space:sp ~trans ~init ~good (),
    { window;
      layers = Array.init levels (fun l0 -> layer (l0 + 1));
      dfifo;
      x = x_bits;
      lemmas } )

let make p = fst (make_full p)
