(* Render a per-run cost breakdown out of an Obs registry and the
   machine ledger, as an aligned text table (human) and as JSON
   (machine, built as a {!Json.t}). *)

let ms ns = float_of_int ns /. 1e6

(* Derived cache effectiveness lines: any counter pair "<p>.hit" with
   "<p>.miss" (cache lookups) or "<p>.fault" (EPC touches) yields a rate.
   A lone half of a pair still yields a line (0% or 100%): an all-miss
   run is a finding, not a formatting accident. *)
let rates counters =
  let prefixes =
    List.filter_map
      (fun (name, _) ->
        List.find_map
          (fun suffix -> Filename.chop_suffix_opt ~suffix name)
          [ ".hit"; ".miss"; ".fault" ])
      counters
  in
  let prefixes = List.sort_uniq compare prefixes in
  List.filter_map
    (fun prefix ->
      let count suffix =
        Option.value ~default:0 (List.assoc_opt (prefix ^ suffix) counters)
      in
      let hits = count ".hit" in
      let total = hits + count ".miss" + count ".fault" in
      if total > 0 then Some (prefix, 100. *. float_of_int hits /. float_of_int total)
      else None)
    prefixes

(* Top-N flat view of a guest profile, hottest self-instruction first.
   Shared by [render] and the CLI's --profile-wasm summary. *)
let profile_table ?(top = 10) prof =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  let fns = Profile.functions prof in
  let total = Profile.total_fuel prof in
  line "-- hot wasm functions --";
  line "%-24s %8s %12s %12s %10s %10s %6s" "function" "calls" "self-instr"
    "total-instr" "self(ms)" "total(ms)" "self%";
  let shown = List.filteri (fun i _ -> i < top) fns in
  List.iter
    (fun (f : Profile.fn) ->
      line "%-24s %8d %12d %12d %10.4f %10.4f %5.1f%%" f.Profile.fn_name
        f.Profile.calls f.Profile.self_fuel f.Profile.total_fuel
        (ms f.Profile.self_cycles) (ms f.Profile.total_cycles)
        (if total = 0 then 0.
         else 100. *. float_of_int f.Profile.self_fuel /. float_of_int total))
    shown;
  let rest = List.length fns - List.length shown in
  if rest > 0 then line "  ... and %d more function(s)" rest;
  Buffer.contents b

(* One row per booked account, read from the distribution of its
   bookings (count = events, sum = ns). *)
let costs ledger =
  List.filter_map
    (fun (name, _) -> Option.map (fun d -> (name, d)) (Ledger.distribution ledger name))
    (Ledger.accounts ledger)

let render ?(title = "per-run cost report") ?profile ~ledger obs =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  line "== %s ==" title;
  let counters = Obs.counters obs in
  if counters <> [] then begin
    line "-- counters --";
    List.iter (fun (name, v) -> line "%-28s %12d" name v) counters;
    List.iter (fun (p, r) -> line "%-28s %11.1f%%" (p ^ ".hit_rate") r) (rates counters)
  end;
  let costs = costs ledger in
  if costs <> [] then begin
    line "-- costs --";
    line "%-28s %10s %12s %10s %10s %10s %10s" "account" "events" "total(ms)"
      "min(ns)" "p50(ns)" "p99(ns)" "max(ns)";
    List.iter
      (fun (name, d) ->
        let q v = Option.value ~default:0 (Sketch.quantile d v) in
        line "%-28s %10d %12.4f %10d %10d %10d %10d" name (Sketch.count d)
          (ms (Sketch.sum d)) (Sketch.vmin d) (q 0.5) (q 0.99) (Sketch.vmax d))
      costs
  end;
  (match Obs.tracer obs with
  | Some tr ->
      line "-- trace ring --";
      line "%-28s %12d" "trace.capacity" (Trace.capacity tr);
      line "%-28s %12d" "trace.recorded" (Trace.total tr);
      line "%-28s %12d" "trace.held" (Trace.length tr);
      line "%-28s %12d" "trace.high_water" (Trace.high_water tr);
      line "%-28s %12d" "trace.dropped" (Trace.dropped tr);
      if Trace.dropped tr > 0 then
        line "WARNING: ring wrapped — the %d oldest event(s) were overwritten"
          (Trace.dropped tr)
  | None -> ());
  (match profile with
  | Some prof -> Buffer.add_string b (profile_table prof)
  | None -> ());
  Buffer.add_string b (Ledger.render ledger);
  Buffer.add_string b (Ledger.render_matrix (Ledger.snapshot ledger));
  Buffer.contents b

(* --- JSON --- *)

let to_json ?profile ~ledger obs =
  let int n = Json.Num (float_of_int n) in
  let obj f l = Json.Obj (List.map f l) in
  let trace =
    match Obs.tracer obs with
    | None -> []
    | Some tr ->
        [ ( "trace",
            Json.Obj
              [ ("capacity", int (Trace.capacity tr));
                ("recorded", int (Trace.total tr));
                ("held", int (Trace.length tr));
                ("high_water", int (Trace.high_water tr));
                ("dropped", int (Trace.dropped tr));
                ("lost", int (Trace.lost tr)) ] ) ]
  in
  let wasm_profile =
    match profile with
    | None -> []
    | Some prof ->
        [ ( "wasm_profile",
            obj
              (fun (f : Profile.fn) ->
                ( f.Profile.fn_name,
                  Json.Obj
                    [ ("calls", int f.Profile.calls);
                      ("self_instr", int f.Profile.self_fuel);
                      ("total_instr", int f.Profile.total_fuel);
                      ("self_ns", int f.Profile.self_cycles);
                      ("total_ns", int f.Profile.total_cycles) ] ))
              (Profile.functions prof) ) ]
  in
  Json.to_string
    (Json.Obj
       ([ ("counters", obj (fun (k, v) -> (k, int v)) (Obs.counters obs));
          ( "histograms",
            obj
              (fun (k, d) ->
                ( k,
                  Json.Obj
                    [ ("count", int (Sketch.count d)); ("sum_ns", int (Sketch.sum d));
                      ("min_ns", int (Sketch.vmin d)); ("max_ns", int (Sketch.vmax d)) ] ))
              (costs ledger) ) ]
       @ trace @ wasm_profile
       @ [ ("ledger", Ledger.to_json (Ledger.snapshot ledger)) ]))
