type 'a entry = { label : string; elapsed_ms : float; outcome : ('a, string) result }

let count_entry (e : _ entry) =
  Metrics.incr "batch/items";
  match e.outcome with Error _ -> Metrics.incr "batch/errors" | Ok _ -> ()

let run ?pool ?jobs ?deadline_ms ?cache ~label ~f items =
  let items = Array.of_list items in
  let n = Array.length items in
  if n = 0 then []
  else begin
    let jobs =
      match jobs with Some j -> max 1 j | None -> Pool.recommended ()
    in
    let work item =
      let t0 = Unix.gettimeofday () in
      let key = label item in
      let outcome =
        (* each item gets its own budget, so one pathological model
           times out alone instead of starving the rest of the sweep *)
        let d =
          match deadline_ms with
          | None -> Deadline.none
          | Some ms -> Deadline.make ~budget_ms:ms ()
        in
        let compute () =
          try f item with
          | Deadline.Deadline_exceeded as exn -> raise exn
          | exn -> Error (Printexc.to_string exn)
        in
        (* Deadline_exceeded escapes [compute] so a timed-out analysis
           is never cached — a retry with a larger budget can still
           succeed — and is converted to a structured error here *)
        match
          Deadline.with_deadline d (fun () ->
              match cache with
              | None -> compute ()
              | Some c -> Cache.find_or_add c key compute)
        with
        | outcome -> outcome
        | exception Deadline.Deadline_exceeded -> Error (Deadline.error_message d)
      in
      let e =
        { label = key; elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.; outcome }
      in
      count_entry e;
      e
    in
    (* duplicate labels need no special casing: [Cache.find_or_add]
       computes a key once and serves every other caller of it, even
       one that arrives while the computation is in flight *)
    let results =
      Metrics.time "batch/run" @@ fun () ->
      if jobs = 1 || n = 1 then Array.map work items
      else
        let pool = match pool with Some p -> p | None -> Pool.default () in
        (* the caller is the jobs-th participant *)
        Pool.map ~slots:(jobs - 1) pool work items
    in
    Array.to_list results
  end
