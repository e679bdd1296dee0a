(* Simulation substrate: virtual clock, LRU cache. (The former Meter
   accumulators were folded into the Twine_obs registry — see
   test_obs.ml for the accounting coverage.) *)

open Twine_sim

let test_clock_basic () =
  let c = Clock.create () in
  Alcotest.(check int) "starts at zero" 0 (Clock.now_ns c);
  Clock.advance c 100;
  Clock.advance c 50;
  Alcotest.(check int) "accumulates" 150 (Clock.now_ns c);
  Alcotest.(check int) "elapsed" 50 (Clock.elapsed_since c 100);
  Alcotest.check_raises "negative" (Invalid_argument "Clock.advance: negative")
    (fun () -> Clock.advance c (-1))

let test_lru_basic () =
  let l = Lru.create ~capacity:2 () in
  Alcotest.(check (option (pair int string))) "no evict" None (Lru.put l 1 "a");
  Alcotest.(check (option (pair int string))) "no evict 2" None (Lru.put l 2 "b");
  Alcotest.(check string) "find 1" "a" (Lru.find l 1);
  (* 2 is now LRU; inserting 3 evicts it *)
  Alcotest.(check (option (pair int string))) "evicts lru" (Some (2, "b")) (Lru.put l 3 "c");
  Alcotest.(check (option string)) "2 gone" None (Lru.peek l 2);
  Alcotest.check_raises "find misses" Not_found (fun () -> ignore (Lru.find l 2));
  Alcotest.(check int) "length" 2 (Lru.length l)

let test_lru_update_promotes () =
  let l = Lru.create ~capacity:2 () in
  ignore (Lru.put l 1 "a");
  ignore (Lru.put l 2 "b");
  ignore (Lru.put l 1 "a2");  (* update in place; promotes 1 *)
  Alcotest.(check (option string)) "updated" (Some "a2") (Lru.peek l 1);
  Alcotest.(check (option (pair int string))) "evicts 2" (Some (2, "b")) (Lru.put l 3 "c")

let test_lru_peek_no_promote () =
  let l = Lru.create ~capacity:2 () in
  ignore (Lru.put l 1 "a");
  ignore (Lru.put l 2 "b");
  ignore (Lru.peek l 1);
  (* 1 was not promoted, so it is still LRU *)
  Alcotest.(check (option (pair int string))) "evicts 1" (Some (1, "a")) (Lru.put l 3 "c")

let test_lru_remove () =
  let l = Lru.create ~capacity:3 () in
  ignore (Lru.put l 1 "a");
  ignore (Lru.put l 2 "b");
  Lru.remove l 1;
  Alcotest.(check (option string)) "gone" None (Lru.peek l 1);
  Lru.remove l 1;  (* absent: a no-op *)
  Alcotest.(check int) "length" 1 (Lru.length l);
  Alcotest.(check (list (pair int string))) "to_list" [ (2, "b") ] (Lru.to_list l)

let test_lru_clear () =
  let l = Lru.create ~capacity:2 () in
  ignore (Lru.put l 1 "a");
  Lru.clear l;
  Alcotest.(check int) "empty" 0 (Lru.length l);
  ignore (Lru.put l 5 "e");
  Alcotest.(check string) "usable after clear" "e" (Lru.find l 5)

let test_lru_trim () =
  let l = Lru.create ~capacity:max_int () in
  List.iter (fun i -> ignore (Lru.put l i i)) [ 1; 2; 3; 4; 5 ];
  (* LRU order 1 2 3 4 5; 2 is pinned, so 1 and 3 go *)
  Lru.trim l 2 ~pinned:(fun k -> k = 2);
  Alcotest.(check (list (pair int int))) "lru-first, pinned kept"
    [ (5, 5); (4, 4); (2, 2) ] (Lru.to_list l);
  Lru.trim l 5 ~pinned:(fun _ -> true);
  Alcotest.(check int) "all pinned" 3 (Lru.length l)

(* A slot freed by a trim or a removal keeps nothing alive: a pager
   trimmed back after a large transaction must not pin the pages it
   dropped. *)
let test_lru_drops_values () =
  let l = Lru.create ~capacity:max_int () in
  let tracked = Weak.create 8 in
  for k = 0 to 7 do
    let b = Bytes.make 64 'x' in
    Weak.set tracked k (Some b);
    ignore (Lru.put l k b)
  done;
  Lru.trim l 5 ~pinned:(fun _ -> false);
  Lru.remove l 6;
  Gc.full_major ();
  let alive = List.filter (Weak.check tracked) (List.init 8 Fun.id) in
  Alcotest.(check (list int)) "only live entries are reachable" [ 5; 7 ] alive;
  Alcotest.(check (list int)) "live entries" [ 7; 5 ] (List.map fst (Lru.to_list l))

(* [find] as an option, for comparing with the models *)
let find_opt l k = match Lru.find l k with v -> Some v | exception Not_found -> None

(* A hit, a put of a present key and a removal relink slots in place. *)
let test_lru_alloc () =
  let l = Lru.create ~capacity:64 () in
  for k = 0 to 63 do ignore (Lru.put l k k) done;
  let words f =
    let before = Gc.minor_words () in
    for i = 1 to 1000 do f (i land 63) done;
    Gc.minor_words () -. before
  in
  let check what w =
    Alcotest.(check bool) (Printf.sprintf "%.0f words for 1000 %s" w what) true (w < 16.)
  in
  check "hits" (words (fun k -> ignore (Lru.find l k)));
  check "puts of a present key" (words (fun k -> ignore (Lru.put l k k)));
  check "removes of an absent key" (words (fun k -> Lru.remove l (k + 64)))

(* Model-based property test: compare against a naive list implementation. *)
let prop_lru_model =
  let open QCheck in
  Test.make ~name:"lru matches reference model" ~count:300
    (pair (int_range 1 8) (small_list (pair (int_range 0 9) (int_range 0 2))))
    (fun (cap, ops) ->
      let lru = Twine_sim.Lru.create ~capacity:cap () in
      (* model: assoc list, MRU first *)
      let model = ref [] in
      let model_find k =
        match List.assoc_opt k !model with
        | None -> None
        | Some v ->
            model := (k, v) :: List.remove_assoc k !model;
            Some v
      in
      let model_put k v =
        if List.mem_assoc k !model then
          model := (k, v) :: List.remove_assoc k !model
        else begin
          if List.length !model >= cap then begin
            let rest = List.rev (List.tl (List.rev !model)) in
            model := rest
          end;
          model := (k, v) :: !model
        end
      in
      List.for_all
        (fun (k, op) ->
          match op with
          | 0 -> (
              let a = find_opt lru k and b = model_find k in
              a = b)
          | 1 ->
              ignore (Twine_sim.Lru.put lru k k);
              model_put k k;
              true
          | _ ->
              let a = Twine_sim.Lru.peek lru k in
              Twine_sim.Lru.remove lru k;
              let b = List.assoc_opt k !model in
              model := List.remove_assoc k !model;
              a = b)
        ops
      && Twine_sim.Lru.to_list lru = !model)

(* The recency order itself, after every operation: an association list
   with the most recent binding first is the model. Hits on the head
   (most recent) node are frequent here, the case [promote] short-cuts. *)
let prop_lru_order_model =
  QCheck.Test.make ~name:"order matches model after every op" ~count:300
    QCheck.(
      pair (int_range 1 6)
        (list_of_size Gen.(int_range 0 60) (pair (int_range 0 7) (int_range 0 3))))
    (fun (cap, ops) ->
      let lru = Lru.create ~capacity:cap () in
      let model = ref [] in
      let touch k v = model := (k, v) :: List.remove_assoc k !model in
      List.for_all
        (fun (k, op) ->
          let same =
            match op with
            | 0 | 1 ->
                (* find, weighted towards the head *)
                let k = if op = 1 then (match !model with (h, _) :: _ -> h | [] -> k) else k in
                let v = List.assoc_opt k !model in
                Option.iter (touch k) v;
                find_opt lru k = v
            | 2 ->
                let evicted =
                  if List.mem_assoc k !model || List.length !model < cap then None
                  else Some (List.nth !model (List.length !model - 1))
                in
                Option.iter (fun (e, _) -> model := List.remove_assoc e !model) evicted;
                touch k (k * 10);
                Lru.put lru k (k * 10) = evicted
            | _ ->
                let v = List.assoc_opt k !model in
                model := List.remove_assoc k !model;
                let removed = Lru.peek lru k in
                Lru.remove lru k;
                removed = v
          in
          same && Lru.to_list lru = !model)
        ops)

(* Long sequences over many keys, so the slot arrays grow several times
   and removed and evicted slots are reused; [clear] drops the arrays
   mid-sequence. Capacities reach a few hundred, or are unbounded as the
   pager's cache is. *)
let prop_lru_growth_model =
  QCheck.Test.make ~name:"growth, slot reuse and clear match the model" ~count:100
    QCheck.(
      pair
        (oneof [ int_range 1 300; always max_int ])
        (list_of_size Gen.(int_range 0 2000) (pair (int_range 0 1000) (int_range 0 99))))
    (fun (cap, ops) ->
      let lru = Lru.create ~capacity:cap () in
      let model = ref [] and len = ref 0 in
      let drop k =
        if List.mem_assoc k !model then begin
          model := List.remove_assoc k !model;
          decr len
        end
      in
      let ok =
        List.for_all
          (fun (k, op) ->
            if op = 0 then begin
              let same = Lru.to_list lru = !model in
              Lru.clear lru;
              model := [];
              len := 0;
              same
            end
            else if op < 30 then begin
              let v = List.assoc_opt k !model and before = Lru.peek lru k in
              drop k;
              Lru.remove lru k;
              before = v && Lru.peek lru k = None && Lru.length lru = !len
            end
            else if op < 60 then begin
              let v = List.assoc_opt k !model in
              Option.iter
                (fun x ->
                  drop k;
                  model := (k, x) :: !model;
                  incr len)
                v;
              find_opt lru k = v
            end
            else begin
              let evicted =
                if List.mem_assoc k !model || !len < cap then None
                else Some (List.nth !model (!len - 1))
              in
              Option.iter (fun (e, _) -> drop e) evicted;
              drop k;
              model := (k, op) :: !model;
              incr len;
              Lru.put lru k op = evicted && Lru.length lru = !len
            end)
          ops
      in
      ok && Lru.to_list lru = !model)

(* --- Eventq --- *)

let test_eventq_order () =
  let q = Twine_sim.Eventq.create () in
  Twine_sim.Eventq.add q ~at:30 "c";
  Twine_sim.Eventq.add q ~at:10 "a";
  Twine_sim.Eventq.add q ~at:20 "b";
  Alcotest.(check int) "length" 3 (Twine_sim.Eventq.length q);
  Alcotest.(check (option (pair int string))) "peek" (Some (10, "a"))
    (Twine_sim.Eventq.peek q);
  Alcotest.(check (option (pair int string))) "pop a" (Some (10, "a"))
    (Twine_sim.Eventq.pop q);
  Alcotest.(check (option (pair int string))) "pop b" (Some (20, "b"))
    (Twine_sim.Eventq.pop q);
  Alcotest.(check (option (pair int string))) "pop c" (Some (30, "c"))
    (Twine_sim.Eventq.pop q);
  Alcotest.(check (option (pair int string))) "empty" None (Twine_sim.Eventq.pop q)

let test_eventq_ties_fifo () =
  (* same timestamp: insertion order decides — scheduler determinism *)
  let q = Twine_sim.Eventq.create () in
  List.iter (fun s -> Twine_sim.Eventq.add q ~at:5 s) [ "x"; "y"; "z" ];
  let popped = List.init 3 (fun _ -> snd (Option.get (Twine_sim.Eventq.pop q))) in
  Alcotest.(check (list string)) "fifo among ties" [ "x"; "y"; "z" ] popped

let test_eventq_drain_until () =
  let q = Twine_sim.Eventq.create () in
  List.iteri (fun i s -> Twine_sim.Eventq.add q ~at:(i * 10) s) [ "a"; "b"; "c"; "d" ];
  let seen = ref [] in
  Twine_sim.Eventq.drain_until q ~now:20 (fun ~at s -> seen := (at, s) :: !seen);
  Alcotest.(check (list (pair int string))) "due events, earliest first"
    [ (0, "a"); (10, "b"); (20, "c") ]
    (List.rev !seen);
  Alcotest.(check int) "one left" 1 (Twine_sim.Eventq.length q);
  Alcotest.check_raises "negative time" (Invalid_argument "Eventq.add: negative time")
    (fun () -> Twine_sim.Eventq.add q ~at:(-1) "bad")

let test_eventq_cancel_before_fire () =
  let q = Twine_sim.Eventq.create () in
  Twine_sim.Eventq.add q ~at:10 "a";
  let b = Twine_sim.Eventq.schedule q ~at:20 "b" in
  Twine_sim.Eventq.add q ~at:30 "c";
  Twine_sim.Eventq.cancel q b;
  Alcotest.(check int) "length drops" 2 (Twine_sim.Eventq.length q);
  Alcotest.(check (option (pair int string))) "pop a" (Some (10, "a"))
    (Twine_sim.Eventq.pop q);
  Alcotest.(check (option int)) "peek_time skips tombstone" (Some 30)
    (Twine_sim.Eventq.peek_time q);
  Alcotest.(check (option (pair int string))) "pop skips b" (Some (30, "c"))
    (Twine_sim.Eventq.pop q);
  Alcotest.(check (option (pair int string))) "empty" None
    (Twine_sim.Eventq.pop q)

let test_eventq_cancel_after_fire () =
  (* cancelling an event that already fired (or was already cancelled)
     is a no-op — the serving fleet revokes deadline timers without
     tracking whether they already popped *)
  let q = Twine_sim.Eventq.create () in
  let a = Twine_sim.Eventq.schedule q ~at:5 "a" in
  Twine_sim.Eventq.add q ~at:7 "b";
  Alcotest.(check (option (pair int string))) "a fires" (Some (5, "a"))
    (Twine_sim.Eventq.pop q);
  Twine_sim.Eventq.cancel q a;
  Twine_sim.Eventq.cancel q a;
  Alcotest.(check int) "b untouched" 1 (Twine_sim.Eventq.length q);
  Alcotest.(check (option (pair int string))) "b fires" (Some (7, "b"))
    (Twine_sim.Eventq.pop q);
  let c = Twine_sim.Eventq.schedule q ~at:9 "c" in
  Twine_sim.Eventq.cancel q c;
  Twine_sim.Eventq.cancel q c;
  Alcotest.(check int) "double cancel counts once" 0
    (Twine_sim.Eventq.length q)

let test_eventq_cancel_keeps_fifo_ties () =
  (* cancelling one of several same-time events must not disturb the
     insertion order of the survivors *)
  let q = Twine_sim.Eventq.create () in
  Twine_sim.Eventq.add q ~at:5 "w";
  let x = Twine_sim.Eventq.schedule q ~at:5 "x" in
  Twine_sim.Eventq.add q ~at:5 "y";
  Twine_sim.Eventq.add q ~at:5 "z";
  Twine_sim.Eventq.cancel q x;
  let popped =
    List.init 3 (fun _ -> snd (Option.get (Twine_sim.Eventq.pop q)))
  in
  Alcotest.(check (list string)) "fifo among survivors" [ "w"; "y"; "z" ]
    popped

let prop_eventq_sorted =
  QCheck.Test.make ~name:"eventq pops in nondecreasing time order" ~count:200
    QCheck.(list (int_bound 1000))
    (fun times ->
      let q = Twine_sim.Eventq.create () in
      List.iter (fun t -> Twine_sim.Eventq.add q ~at:t t) times;
      let rec drain acc =
        match Twine_sim.Eventq.pop q with
        | Some (t, _) -> drain (t :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      popped = List.sort compare times)

(* --- Fault: activation windows and re-arm determinism --- *)

let test_fault_window () =
  let now = ref 0 in
  let p =
    Fault.plan ~seed:"w"
      [ Fault.rule ~prob:1.0 ~from_ns:100 ~until_ns:200 "site" Fault.Drop ]
  in
  Fault.arm ~now:(fun () -> !now) p;
  now := 50;
  Alcotest.(check bool) "before window" true (Fault.consult p "site" = None);
  now := 100;
  Alcotest.(check bool) "window open (inclusive)" true
    (Fault.consult p "site" = Some Fault.Drop);
  now := 199;
  Alcotest.(check bool) "inside window" true
    (Fault.consult p "site" = Some Fault.Drop);
  now := 200;
  Alcotest.(check bool) "window closed (exclusive)" true
    (Fault.consult p "site" = None);
  now := 250;
  Alcotest.(check bool) "after window" true (Fault.consult p "site" = None);
  (* a windowed rule armed without a clock source never fires *)
  Fault.arm p;
  Alcotest.(check bool) "no clock, no fire" true (Fault.consult p "site" = None)

let test_fault_window_rearm_determinism () =
  (* out-of-window operations consume no randomness, so the in-window
     injection pattern replays identically even when the two runs see
     different numbers of out-of-window operations *)
  let now = ref 0 in
  let p =
    Fault.plan ~seed:"rearm"
      [ Fault.rule ~prob:0.5 ~from_ns:1000 "site" Fault.Fail ]
  in
  let drive ~cold ~hot =
    Fault.arm ~now:(fun () -> !now) p;
    now := 0;
    for _ = 1 to cold do
      ignore (Fault.consult p "site")
    done;
    now := 5000;
    List.init hot (fun _ -> Fault.consult p "site" <> None)
  in
  let run1 = drive ~cold:17 ~hot:40 in
  let run2 = drive ~cold:0 ~hot:40 in
  Alcotest.(check (list bool)) "same in-window pattern" run1 run2;
  Alcotest.(check bool) "some injections fired" true
    (List.exists Fun.id run1)

(* --- Chaos: spec grammar round-trip and window rebasing --- *)

let chaos_ok s =
  match Chaos.parse s with
  | Ok spec -> spec
  | Error msg -> Alcotest.failf "parse %S: %s" s msg

let test_chaos_roundtrip () =
  List.iter
    (fun s ->
      let spec = chaos_ok s in
      let r = Chaos.render spec in
      Alcotest.(check bool)
        (Printf.sprintf "%S round-trips via %S" s r)
        true
        (chaos_ok r = spec))
    [ "enclave.ecall=crash@200";
      "seed=c1;enclave.ecall=fail%0.01x5[10ms..50ms]";
      "backing.write=torn:0.5%0.25;backing.read=delay:900ns%0.1";
      "enclave.ecall=drop%1.0[..2us];enclave.ocall=corrupt@3x2";
      "seed=z;enclave.ecall=fail%0.001[1ms..]" ]

let test_chaos_parse_errors () =
  List.iter
    (fun s ->
      match Chaos.parse s with
      | Ok _ -> Alcotest.failf "expected %S to be rejected" s
      | Error _ -> ())
    [ ""; "enclave.ecall"; "enclave.ecall=explode"; "=crash";
      "enclave.ecall=crash@0"; "enclave.ecall=fail%2.0";
      "enclave.ecall=crash[5ms..2ms]"; "enclave.ecall=crash@2x0";
      "backing.read=delay:900ns"; "seed=";
      (* a typo, and a site that no layer consults *)
      "enclave.ecal=crash@5"; "svfs.sync=crash@1" ]

let test_chaos_to_plan_rebases_windows () =
  (* [100..200] relative, armed with t0 = 1000: fires only in
     [1100, 1200) of machine time *)
  let spec = chaos_ok "seed=rb;backing.read=drop%1.0[100..200]" in
  let plan = Chaos.to_plan ~t0:1000 spec in
  let now = ref 0 in
  Fault.arm ~now:(fun () -> !now) plan;
  now := 150;
  Alcotest.(check bool) "relative time not rebased" true
    (Fault.consult plan "backing.read" = None);
  now := 1150;
  Alcotest.(check bool) "inside rebased window" true
    (Fault.consult plan "backing.read" = Some Fault.Drop);
  now := 1200;
  Alcotest.(check bool) "rebased window closes" true
    (Fault.consult plan "backing.read" = None)

let qc = QCheck_alcotest.to_alcotest

let suite =
  [ ("clock", [ Alcotest.test_case "basic" `Quick test_clock_basic ]);
    ("lru", [
      Alcotest.test_case "insert/evict" `Quick test_lru_basic;
      Alcotest.test_case "update promotes" `Quick test_lru_update_promotes;
      Alcotest.test_case "peek does not promote" `Quick test_lru_peek_no_promote;
      Alcotest.test_case "remove" `Quick test_lru_remove;
      Alcotest.test_case "clear" `Quick test_lru_clear;
      Alcotest.test_case "trim" `Quick test_lru_trim;
      Alcotest.test_case "freed slots keep no value" `Quick test_lru_drops_values;
      Alcotest.test_case "hit, present put and remove allocate nothing" `Quick
        test_lru_alloc;
      qc prop_lru_model;
      qc prop_lru_order_model;
      qc prop_lru_growth_model;
    ]);
    ("eventq", [
      Alcotest.test_case "time order" `Quick test_eventq_order;
      Alcotest.test_case "ties are fifo" `Quick test_eventq_ties_fifo;
      Alcotest.test_case "drain_until" `Quick test_eventq_drain_until;
      Alcotest.test_case "cancel before fire" `Quick
        test_eventq_cancel_before_fire;
      Alcotest.test_case "cancel after fire is a no-op" `Quick
        test_eventq_cancel_after_fire;
      Alcotest.test_case "cancel keeps fifo ties" `Quick
        test_eventq_cancel_keeps_fifo_ties;
      qc prop_eventq_sorted;
    ]);
    ("fault", [
      Alcotest.test_case "activation window" `Quick test_fault_window;
      Alcotest.test_case "window re-arm determinism" `Quick
        test_fault_window_rearm_determinism;
    ]);
    ("chaos", [
      Alcotest.test_case "parse/render round-trip" `Quick test_chaos_roundtrip;
      Alcotest.test_case "parse errors" `Quick test_chaos_parse_errors;
      Alcotest.test_case "to_plan rebases windows" `Quick
        test_chaos_to_plan_rebases_windows;
    ]);
  ]

let () = Alcotest.run "twine_sim" suite
