(* Machine-readable benchmark baselines with per-metric tolerance
   bands: the repo's perf-trajectory artifact.

   A baseline is a flat map from metric path (e.g.
   ["micro.rand_read_ns.1500"]) to an expected value plus a relative
   tolerance. [check] compares a fresh collection against the
   committed file and fails loudly when any guarded metric leaves its
   band — the CI regression gate. Metrics measured in wall-clock time
   carry no tolerance ([tol = None]): they are recorded for trend
   inspection but never gate, since CI hardware varies. *)

type metric = { value : float; tol : float option }

type t = {
  meta : (string * string) list;  (* provenance: generator, schema notes *)
  metrics : (string * metric) list;  (* insertion-ordered *)
}

let schema = "twine-bench-baseline/v1"

let metric ?tol value = { value; tol }

let v ?tol name value = (name, { value = float_of_int value; tol })
let vf ?tol name value = (name, { value; tol })

let create ?(meta = []) metrics = { meta; metrics }

(* --- JSON round-trip --- *)

let to_json t =
  Json.Obj
    [ ("schema", Json.Str schema);
      ("meta", Json.Obj (List.map (fun (k, s) -> (k, Json.Str s)) t.meta));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (path, m) ->
               ( path,
                 Json.Obj
                   [ ("value", Json.Num m.value);
                     ( "tol",
                       match m.tol with
                       | Some f -> Json.Num f
                       | None -> Json.Null ) ] ))
             t.metrics) ) ]

let to_string t = Json.to_string (to_json t)

let of_json j =
  match Json.member "schema" j with
  | Some (Json.Str s) when s = schema -> (
      let meta =
        match Json.member "meta" j with
        | Some (Json.Obj l) ->
            List.filter_map
              (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_str v))
              l
        | _ -> []
      in
      match Json.member "metrics" j with
      | Some (Json.Obj l) ->
          (* a malformed tol must not read as "no tolerance": that
             would silently ungate the metric *)
          let parse_metric (path, mv) =
            match (Json.member "value" mv, Json.member "tol" mv) with
            | Some (Json.Num value), tol when Float.is_finite value -> (
                match tol with
                | Some Json.Null -> Ok (path, { value; tol = None })
                | Some (Json.Num t) when Float.is_finite t && t >= 0. ->
                    Ok (path, { value; tol = Some t })
                | _ ->
                    Error
                      (Printf.sprintf
                         "metric %S: tol must be null or a finite number >= 0" path))
            | _ -> Error (Printf.sprintf "metric %S: value must be a finite number" path)
          in
          let rec go acc = function
            | [] -> Ok { meta; metrics = List.rev acc }
            | m :: rest -> (
                match parse_metric m with
                | Ok m -> go (m :: acc) rest
                | Error _ as e -> e)
          in
          go [] l
      | _ -> Error "missing metrics object")
  | Some (Json.Str s) -> Error (Printf.sprintf "unknown schema %S" s)
  | _ -> Error "missing schema field"

let of_string s = Result.bind (Json.parse s) of_json

(* --- comparison --- *)

type verdict = {
  path : string;
  expected : float;
  got : float option;  (* None: metric missing from the current run *)
  tol : float option;
  ok : bool;
}

(* Relative deviation against the larger magnitude floor-ed at 1.0, so
   tiny counters near zero do not produce infinite relative errors. *)
let deviation ~expected ~got =
  Float.abs (got -. expected) /. Float.max (Float.abs expected) 1.0

let check ~baseline ~current =
  List.map
    (fun (path, (m : metric)) ->
      match List.assoc_opt path current.metrics with
      | None -> { path; expected = m.value; got = None; tol = m.tol; ok = false }
      | Some cur ->
          let ok =
            match m.tol with
            | None -> true  (* informational: recorded, never gates *)
            | Some tol -> deviation ~expected:m.value ~got:cur.value <= tol
          in
          { path; expected = m.value; got = Some cur.value; tol = m.tol; ok })
    baseline.metrics

let all_ok verdicts = List.for_all (fun v -> v.ok) verdicts

let render verdicts =
  let b = Buffer.create 1024 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string b s;
        Buffer.add_char b '\n')
      fmt
  in
  line "%-34s %14s %14s %8s %7s  %s" "metric" "baseline" "current" "drift"
    "band" "verdict";
  line "%s" (String.make 96 '-');
  List.iter
    (fun v ->
      let got_s, drift_s =
        match v.got with
        | None -> ("missing", "-")
        | Some g ->
            ( Printf.sprintf "%14.1f" g,
              Printf.sprintf "%+6.1f%%"
                (100. *. (g -. v.expected)
                /. Float.max (Float.abs v.expected) 1.0) )
      in
      let band =
        match v.tol with
        | Some tol -> Printf.sprintf "%.0f%%" (100. *. tol)
        | None -> "info"
      in
      (* informational metrics (no band) never gate but their drift is
         still worth a look — mark them "info", not a reassuring "ok" *)
      let verdict =
        match (v.ok, v.tol, v.got) with
        | false, _, _ -> "FAIL"
        | true, None, Some _ -> "info"
        | true, _, _ -> "ok"
      in
      line "%-34s %14.1f %14s %8s %7s  %s" v.path v.expected got_s drift_s band
        verdict)
    verdicts;
  Buffer.contents b
