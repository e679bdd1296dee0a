(* The streaming SLO plane's numeric core: the mergeable quantile
   sketch's error and algebra laws, the tumbling-window series'
   close/zero-fill semantics, and the SLO grammar + burn-rate
   evaluator. These are the invariants `twine serve --stream` rests
   on: whatever order requests fold in, the fleet tails and verdicts
   must replay byte-identically and stay within the advertised
   relative error of ground truth. *)

open Twine_obs

let qc = QCheck_alcotest.to_alcotest

(* Latency-like values: a mix that lands in the exact small-value
   range, the mid binades and the deep log-bucketed tail. *)
let value_gen =
  QCheck.Gen.(
    frequency
      [ (3, int_range 0 100);
        (3, int_range 100 100_000);
        (3, int_range 100_000 1_000_000_000);
        (1, int_range 1_000_000_000 (1 lsl 45)) ])

let values_arb = QCheck.make QCheck.Gen.(list_size (int_range 1 300) value_gen)

let sketch_of values =
  let t = Sketch.create () in
  List.iter (Sketch.insert t) values;
  t

let bytes_of t = Json.to_string (Sketch.to_json t)

(* Ground truth: exact nearest-rank quantile over the sorted sample,
   with the same epsilon-guarded rank as the sketch. *)
let exact_quantile values q =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  let r = int_of_float (ceil ((q *. float_of_int n) -. 1e-9)) in
  let r = if r < 1 then 1 else if r > n then n else r in
  a.(r - 1)

(* ------------------------------------------------------------------ *)
(* sketch: error bound and algebra                                     *)
(* ------------------------------------------------------------------ *)

let prop_quantile_alpha =
  QCheck.Test.make ~name:"sketch quantiles within alpha of exact" ~count:200
    (QCheck.pair values_arb
       (QCheck.make QCheck.Gen.(frequency
          [ (1, return 0.0); (1, return 1.0); (2, return 0.5);
            (2, return 0.99); (4, float_bound_inclusive 1.0) ])))
    (fun (values, q) ->
      let t = sketch_of values in
      match Sketch.quantile t q with
      | None -> false
      | Some est ->
          let exact = exact_quantile values q in
          abs (est - exact)
          <= int_of_float (Sketch.alpha *. float_of_int exact) + 1)

let prop_merge_commutative =
  QCheck.Test.make ~name:"sketch merge is commutative (byte-identical)"
    ~count:100
    (QCheck.pair values_arb values_arb)
    (fun (xs, ys) ->
      let a = sketch_of xs and b = sketch_of ys in
      bytes_of (Sketch.merge a b) = bytes_of (Sketch.merge b a))

let prop_merge_associative =
  QCheck.Test.make ~name:"sketch merge is associative (byte-identical)"
    ~count:100
    (QCheck.triple values_arb values_arb values_arb)
    (fun (xs, ys, zs) ->
      let a = sketch_of xs and b = sketch_of ys and c = sketch_of zs in
      bytes_of (Sketch.merge (Sketch.merge a b) c)
      = bytes_of (Sketch.merge a (Sketch.merge b c)))

let prop_insert_then_merge =
  QCheck.Test.make ~name:"split insert + merge = bulk insert" ~count:100
    (QCheck.pair values_arb QCheck.small_nat)
    (fun (values, cut) ->
      let n = List.length values in
      let cut = cut mod (n + 1) in
      let left = List.filteri (fun i _ -> i < cut) values in
      let right = List.filteri (fun i _ -> i >= cut) values in
      bytes_of (Sketch.merge (sketch_of left) (sketch_of right))
      = bytes_of (sketch_of values))

let prop_json_roundtrip =
  QCheck.Test.make ~name:"sketch JSON round-trip is byte-identical"
    ~count:100 values_arb
    (fun values ->
      let t = sketch_of values in
      match Sketch.of_json (Sketch.to_json t) with
      | Error _ -> false
      | Ok t' ->
          bytes_of t' = bytes_of t
          && Sketch.quantile t' 0.99 = Sketch.quantile t 0.99)

let test_sketch_basics () =
  let t = Sketch.create () in
  Alcotest.(check (option int)) "empty quantile" None (Sketch.quantile t 0.5);
  Alcotest.(check int) "empty count" 0 (Sketch.count t);
  List.iter (Sketch.insert t) [ 5; 5; 5; 1_000_000; 17 ];
  Alcotest.(check int) "count" 5 (Sketch.count t);
  Alcotest.(check int) "sum" 1_000_032 (Sketch.sum t);
  Alcotest.(check int) "min" 5 (Sketch.vmin t);
  Alcotest.(check int) "max" 1_000_000 (Sketch.vmax t);
  (* q=0 and q=1 are the tracked extremes, exact *)
  Alcotest.(check (option int)) "p0" (Some 5) (Sketch.quantile t 0.);
  Alcotest.(check (option int)) "p100" (Some 1_000_000) (Sketch.quantile t 1.);
  (* small values are exact (one bucket per value below 64) *)
  Alcotest.(check (option int)) "p50 exact small" (Some 5) (Sketch.quantile t 0.5);
  Alcotest.check_raises "negative insert"
    (Invalid_argument "Sketch.insert: negative value") (fun () ->
      Sketch.insert t (-1));
  Alcotest.check_raises "bad q" (Invalid_argument "Sketch.quantile: q outside [0,1]")
    (fun () -> ignore (Sketch.quantile t 1.5));
  (* the bucket array grows to the last bucket of the universe (whose
     lower bound 127 * 2^55 JSON carries exactly) and back through JSON;
     merging with a short sketch keeps every count *)
  let big = 127 lsl 55 in
  let top = sketch_of [ big; 0 ] in
  (match Sketch.of_json (Sketch.to_json top) with
  | Ok t' -> Alcotest.(check string) "top bucket round-trips" (bytes_of top) (bytes_of t')
  | Error e -> Alcotest.fail e);
  Alcotest.(check string) "merge with a short sketch"
    (bytes_of (sketch_of [ big; 0; 5; 5; 5; 1_000_000; 17 ]))
    (bytes_of (Sketch.merge t top))

let test_sketch_json_rejects () =
  let reject what j =
    match Sketch.of_json j with
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error _ -> ()
  in
  reject "wrong schema"
    (Json.Obj [ ("schema", Json.Str "nope/v1") ]);
  let t = sketch_of [ 1; 2; 3 ] in
  (match Sketch.to_json t with
  | Json.Obj fields ->
      reject "count mismatch"
        (Json.Obj
           (List.map
              (fun (k, v) -> if k = "count" then (k, Json.Num 99.) else (k, v))
              fields));
      reject "bucket out of range"
        (Json.Obj
           (List.map
              (fun (k, v) ->
                if k = "buckets" then
                  (k, Json.Arr [ Json.Arr [ Json.Num 1e9; Json.Num 3. ] ])
                else (k, v))
              fields))
  | _ -> Alcotest.fail "sketch json not an object")

(* ------------------------------------------------------------------ *)
(* timeseries: window close and zero-fill semantics                    *)
(* ------------------------------------------------------------------ *)

let test_timeseries_windows () =
  let closed = ref [] in
  let ts =
    Timeseries.create ~threshold_ns:100
      ~probe:(fun ~track:_ -> [ ("g", 7) ])
      ~on_close:(fun ~track w -> closed := (track, w.Timeseries.w_index) :: !closed)
      ~t0:1000 ~window_ns:10 ()
  in
  Timeseries.record ts ~now:1001 ~track:"a" ~latency_ns:50 ();
  Timeseries.record ts ~now:1005 ~track:"a" ~latency_ns:150
    ~comps:[ ("exec", 150) ] ();
  (* jumping to window 3 closes windows 0..2, zero-filling 1 and 2 *)
  Timeseries.record ts ~now:1035 ~track:"a" ~latency_ns:30 ();
  Timeseries.finish ts ~now:1040;
  let ws = Timeseries.windows ts ~track:"a" in
  Alcotest.(check int) "4 contiguous windows" 4 (List.length ws);
  let w0 = List.nth ws 0 and w1 = List.nth ws 1 and w3 = List.nth ws 3 in
  Alcotest.(check int) "w0 bounds" 1000 w0.Timeseries.w_start_ns;
  Alcotest.(check int) "w0 end" 1010 w0.Timeseries.w_end_ns;
  Alcotest.(check int) "w0 count" 2 w0.Timeseries.w_count;
  Alcotest.(check int) "w0 overs (strictly above 100)" 1 w0.Timeseries.w_overs;
  Alcotest.(check int) "w0 max" 150 w0.Timeseries.w_max_ns;
  Alcotest.(check (list (pair string int))) "w0 comps" [ ("exec", 150) ]
    w0.Timeseries.w_comps;
  Alcotest.(check (list (pair string int))) "w0 gauges probed" [ ("g", 7) ]
    w0.Timeseries.w_gauges;
  Alcotest.(check int) "zero-filled w1" 0 w1.Timeseries.w_count;
  Alcotest.(check int) "w3 count" 1 w3.Timeseries.w_count;
  Alcotest.(check (list (pair string int)))
    "close order: ascending per track"
    [ ("a", 0); ("a", 1); ("a", 2); ("a", 3) ]
    (List.rev !closed);
  (* cumulative sketch = all samples *)
  (match Timeseries.sketch ts ~track:"a" with
  | Some sk -> Alcotest.(check int) "cumulative sketch count" 3 (Sketch.count sk)
  | None -> Alcotest.fail "no cumulative sketch");
  Alcotest.check_raises "timestamp before open window"
    (Invalid_argument "Timeseries.record: timestamp before the open window")
    (fun () -> Timeseries.record ts ~now:1001 ~track:"a" ~latency_ns:1 ())

let test_timeseries_finish_aligns () =
  let ts = Timeseries.create ~t0:0 ~window_ns:10 () in
  Timeseries.record ts ~now:5 ~track:"a" ~latency_ns:1 ();
  Timeseries.record ts ~now:25 ~track:"b" ~latency_ns:1 ();
  Timeseries.finish ts ~now:30;
  Alcotest.(check int) "a closed through window 2" 3
    (List.length (Timeseries.windows ts ~track:"a"));
  Alcotest.(check int) "b closed through window 2" 3
    (List.length (Timeseries.windows ts ~track:"b"));
  Alcotest.(check (list string)) "tracks sorted" [ "a"; "b" ]
    (Timeseries.tracks ts)

(* ------------------------------------------------------------------ *)
(* slo: grammar round-trip and burn-rate evaluation                    *)
(* ------------------------------------------------------------------ *)

let test_slo_parse_render () =
  let roundtrip s =
    match Slo.parse s with
    | Error e -> Alcotest.failf "parse %s: %s" s e
    | Ok spec -> (
        let r = Slo.render spec in
        match Slo.parse r with
        | Error e -> Alcotest.failf "reparse %s: %s" r e
        | Ok spec' ->
            Alcotest.(check string) ("canonical fixpoint of " ^ s) r
              (Slo.render spec'))
  in
  List.iter roundtrip
    [ "p99<2ms@50ms,budget=0.1%";
      "p50<750us@1ms,budget=5%";
      "p99.9<1s@100ms,budget=0.01%,fast=2x3";
      "p95<1500ns@10us,budget=1%,fast=10x1,slow=2x20" ];
  (match Slo.parse "p99<2ms@50ms,budget=0.1%" with
  | Ok s ->
      Alcotest.(check int) "q_ppm" 990_000 s.Slo.q_ppm;
      Alcotest.(check int) "threshold" 2_000_000 s.Slo.threshold_ns;
      Alcotest.(check int) "window" 50_000_000 s.Slo.window_ns;
      Alcotest.(check int) "budget" 1000 s.Slo.budget_ppm;
      Alcotest.(check int) "default fast" 14_400 s.Slo.fast_x1000;
      Alcotest.(check int) "default slow windows" 5 s.Slo.slow_windows
  | Error e -> Alcotest.failf "parse: %s" e);
  List.iter
    (fun bad ->
      match Slo.parse bad with
      | Ok _ -> Alcotest.failf "accepted %s" bad
      | Error _ -> ())
    [ ""; "p99<2ms"; "q99<2ms@50ms,budget=0.1%"; "p99<2@50ms,budget=0.1%";
      "p99<2ms@50ms,budget=110%"; "p99<2ms@50ms,budget=0.1%,fast=0x1";
      "p101<2ms@50ms,budget=0.1%"; "p99<2ms@50ms,budget=0.1%,bogus=1" ]

(* Drive a synthetic series through Timeseries so w_overs is counted
   the same way serve does, then check the evaluator's arithmetic. *)
let test_slo_evaluate () =
  let spec =
    match Slo.parse "p50<100ns@10ns,budget=10%,fast=4x1,slow=2x3" with
    | Ok s -> s
    | Error e -> Alcotest.failf "spec: %s" e
  in
  let ts = Timeseries.create ~threshold_ns:spec.Slo.threshold_ns ~t0:0
      ~window_ns:spec.Slo.window_ns ()
  in
  (* window 0: 10 fast samples; windows 1-3: mostly over threshold *)
  for i = 0 to 9 do
    Timeseries.record ts ~now:i ~track:"fleet" ~latency_ns:50
      ~comps:[ ("exec", 50) ] ()
  done;
  for w = 1 to 3 do
    for i = 0 to 9 do
      Timeseries.record ts
        ~now:((w * 10) + i)
        ~track:"fleet"
        ~latency_ns:(if i < 8 then 500 else 50)
        ~comps:[ ("pager", (if i < 8 then 500 else 50)) ]
        ()
    done
  done;
  Timeseries.finish ts ~now:40;
  let ev = Slo.evaluate spec (Timeseries.windows ts ~track:"fleet") in
  Alcotest.(check int) "windows" 4 ev.Slo.ev_windows;
  Alcotest.(check int) "total" 40 ev.Slo.ev_total;
  Alcotest.(check int) "overs" 24 ev.Slo.ev_overs;
  (* burn = (24/40) / 10% = 6.0x *)
  Alcotest.(check int) "burn x1000" 6000 ev.Slo.ev_burn_x1000;
  Alcotest.(check bool) "violated" true ev.Slo.ev_violated;
  (* windowed p50 over threshold in windows 1-3 only *)
  Alcotest.(check (list int)) "violating windows" [ 1; 2; 3 ]
    (List.map (fun v -> v.Slo.vi_window) ev.Slo.ev_violations);
  (match ev.Slo.ev_violations with
  | v :: _ ->
      Alcotest.(check int) "violation bounds" 10 v.Slo.vi_start_ns;
      Alcotest.(check int) "violation overs" 8 v.Slo.vi_overs;
      Alcotest.(check string) "violation blame" "pager" v.Slo.vi_blame
  | [] -> Alcotest.fail "no violations");
  (* fast rule: burn >= 4x over 1 trailing window -> fires at windows
     1,2,3 (8/10 over = 8x). slow rule: >= 2x over 3 trailing windows:
     window 2 sees (8+8+0)/30 = 5.33x... window index 2 range covers
     0-2: 16/30 over budget 10% = 5.33x >= 2x -> fires at window 2. *)
  (match ev.Slo.ev_first_fast_ns with
  | Some t -> Alcotest.(check int) "first fast at end of window 1" 20 t
  | None -> Alcotest.fail "fast never fired");
  (match ev.Slo.ev_first_slow_ns with
  | Some t -> Alcotest.(check int) "first slow at end of window 2" 30 t
  | None -> Alcotest.fail "slow never fired");
  let empty = Slo.evaluate spec [] in
  Alcotest.(check bool) "empty series not violated" false
    empty.Slo.ev_violated;
  Alcotest.(check int) "empty burn" 0 empty.Slo.ev_burn_x1000

let () =
  Alcotest.run "twine sketch/slo"
    [
      ( "sketch",
        [
          Alcotest.test_case "basics and extremes" `Quick test_sketch_basics;
          Alcotest.test_case "json rejects malformed" `Quick
            test_sketch_json_rejects;
          qc prop_quantile_alpha;
          qc prop_merge_commutative;
          qc prop_merge_associative;
          qc prop_insert_then_merge;
          qc prop_json_roundtrip;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "window close, zero-fill, probe" `Quick
            test_timeseries_windows;
          Alcotest.test_case "finish aligns tracks" `Quick
            test_timeseries_finish_aligns;
        ] );
      ( "slo",
        [
          Alcotest.test_case "grammar round-trips" `Quick test_slo_parse_render;
          Alcotest.test_case "burn-rate evaluation" `Quick test_slo_evaluate;
        ] );
    ]
