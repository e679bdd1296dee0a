(* Mergeable quantile sketch over non-negative integers.

   Log-linear bucketing: values below [subbuckets] are exact (one
   bucket per value); above that, the binade [2^e, 2^(e+1)) is split
   into [subbuckets] equal-width linear buckets of width 2^(e -
   sb_bits). A bucket's width over its lower bound is therefore at
   most 1/subbuckets, so the midpoint estimate is within alpha = 1 /
   (2 * subbuckets) relative error of any member — the bound
   advertised in the interface and asserted by `bench serve` against
   the exact retained-mode percentiles.

   All state is integers on a fixed bucket universe, so insertion
   order and merge grouping cannot perturb the result: the serving
   fleet merges per-window, per-enclave sketches into fleet tails and
   still replays byte-identically. The bucket array holds only the
   prefix of that universe up to the largest bucket used, and grows on
   demand: a sketch of small values stays small. *)

let sb_bits = 6
let subbuckets = 1 lsl sb_bits
let alpha = 1. /. float_of_int (2 * subbuckets)

(* Largest index: a 62-bit value has bit length 62, hence shift
   61 - sb_bits, hence index (62 - sb_bits) * subbuckets + (subbuckets
   - 1). One past that: *)
let nbuckets = (63 - sb_bits) * subbuckets

type t = {
  mutable s_count : int;
  mutable s_sum : int;
  mutable s_min : int;  (* max_int sentinel when empty *)
  mutable s_max : int;
  mutable buckets : int array;  (* a prefix of the universe *)
}

let create () = { s_count = 0; s_sum = 0; s_min = max_int; s_max = 0; buckets = [||] }

(* Make bucket [i] addressable. The array at least doubles, so growth
   costs amortised O(1) per insert. *)
let reserve t i =
  let n = Array.length t.buckets in
  if i >= n then begin
    let b = Array.make (min nbuckets (max (i + 1) (2 * n))) 0 in
    Array.blit t.buckets 0 b 0 n;
    t.buckets <- b
  end

let bitlen v =
  let b = ref 0 and v = ref v in
  while !v > 0 do
    incr b;
    v := !v lsr 1
  done;
  !b

let index_of v =
  if v < subbuckets then v
  else
    let shift = bitlen v - 1 - sb_bits in
    ((shift + 1) * subbuckets) + ((v lsr shift) - subbuckets)

(* Inclusive [lo, hi] range of bucket [i] — inverse of [index_of]. *)
let bounds_of i =
  if i < subbuckets then (i, i)
  else
    let shift = (i / subbuckets) - 1 in
    let lo = (subbuckets + (i mod subbuckets)) lsl shift in
    (lo, lo + (1 lsl shift) - 1)

let insert t v =
  if v < 0 then invalid_arg "Sketch.insert: negative value";
  t.s_count <- t.s_count + 1;
  t.s_sum <- t.s_sum + v;
  if v < t.s_min then t.s_min <- v;
  if v > t.s_max then t.s_max <- v;
  let i = index_of v in
  reserve t i;
  t.buckets.(i) <- t.buckets.(i) + 1

let merge a b =
  let long, short =
    if Array.length a.buckets >= Array.length b.buckets then (a, b) else (b, a)
  in
  let buckets = Array.copy long.buckets in
  Array.iteri (fun i c -> buckets.(i) <- buckets.(i) + c) short.buckets;
  { s_count = a.s_count + b.s_count; s_sum = a.s_sum + b.s_sum;
    s_min = min a.s_min b.s_min; s_max = max a.s_max b.s_max; buckets }

let count t = t.s_count
let sum t = t.s_sum
let vmin t = if t.s_count = 0 then 0 else t.s_min
let vmax t = t.s_max

let quantile t q =
  if q < 0. || q > 1. then invalid_arg "Sketch.quantile: q outside [0,1]";
  if t.s_count = 0 then None
  else begin
    (* nearest rank, with an epsilon guard: an exact product like
       0.99 *. 100. can land just above the integer and ceil to one
       whole rank too high *)
    let rank =
      let r = int_of_float (ceil ((q *. float_of_int t.s_count) -. 1e-9)) in
      if r < 1 then 1 else if r > t.s_count then t.s_count else r
    in
    (* ranks 1 and count are the tracked extremes — exact, no bucket *)
    if rank = 1 then Some t.s_min
    else if rank = t.s_count then Some t.s_max
    else begin
    let i = ref 0 and acc = ref 0 in
    while !acc < rank do
      acc := !acc + t.buckets.(!i);
      if !acc < rank then incr i
    done;
    let lo, hi = bounds_of !i in
    let mid = lo + ((hi - lo) / 2) in
    Some (min t.s_max (max t.s_min mid))
    end
  end

(* --- canonical JSON (twine-sketch/v1) --- *)

let schema = "twine-sketch/v1"

let to_json t =
  let pairs = ref [] in
  for i = Array.length t.buckets - 1 downto 0 do
    if t.buckets.(i) <> 0 then
      pairs :=
        Json.Arr [ Num (float_of_int i); Num (float_of_int t.buckets.(i)) ]
        :: !pairs
  done;
  Json.Obj
    [
      ("schema", Str schema);
      ("sb_bits", Num (float_of_int sb_bits));
      ("count", Num (float_of_int t.s_count));
      ("sum", Num (float_of_int t.s_sum));
      ("min", Num (float_of_int (vmin t)));
      ("max", Num (float_of_int t.s_max));
      ("buckets", Arr !pairs);
    ]

let of_json j =
  let ( let* ) = Result.bind in
  let field name conv =
    match Option.bind (Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "sketch: missing or bad %S" name)
  in
  let int_field name =
    let* f = field name Json.to_float in
    if Float.is_integer f then Ok (int_of_float f)
    else Error (Printf.sprintf "sketch: %S not an integer" name)
  in
  let* s = field "schema" Json.to_str in
  if s <> schema then Error (Printf.sprintf "sketch: schema %S" s)
  else
    let* sb = int_field "sb_bits" in
    if sb <> sb_bits then
      Error (Printf.sprintf "sketch: sb_bits %d (want %d)" sb sb_bits)
    else
      let* cnt = int_field "count" in
      let* sum = int_field "sum" in
      let* mn = int_field "min" in
      let* mx = int_field "max" in
      let* pairs = field "buckets" Json.to_list in
      let t = create () in
      let rec fill pop = function
        | [] ->
            if pop <> cnt then
              Error
                (Printf.sprintf "sketch: count %d but buckets hold %d" cnt pop)
            else begin
              t.s_count <- cnt;
              t.s_sum <- sum;
              t.s_min <- (if cnt = 0 then max_int else mn);
              t.s_max <- mx;
              Ok t
            end
        | Json.Arr [ Num i; Num c ] :: rest
          when Float.is_integer i && Float.is_integer c ->
            let i = int_of_float i and c = int_of_float c in
            if i < 0 || i >= nbuckets || c <= 0 then
              Error "sketch: bucket out of range"
            else begin
              reserve t i;
              t.buckets.(i) <- t.buckets.(i) + c;
              fill (pop + c) rest
            end
        | _ -> Error "sketch: malformed bucket pair"
      in
      fill 0 pairs
