type 'a entry = { label : string; elapsed_ms : float; outcome : ('a, string) result }

let run ?jobs ?deadline_ms ?cache ?with_ctx ~label ~f items =
  let items = Array.of_list items in
  if Array.length items = 0 then []
  else begin
    let jobs = match jobs with Some j -> max 1 j | None -> Pool.recommended () in
    (* read once, on the caller: pool workers have no ambient deadline
       of their own, so every item is bounded by this one value *)
    let outer = Deadline.current () in
    let work ctx item =
      let t0 = Unix.gettimeofday () in
      let key = label item in
      (* each item gets its own budget, so one pathological model
         times out alone instead of starving the rest of the run;
         without one, the item runs under the caller's deadline *)
      let d =
        match deadline_ms with None -> outer | Some ms -> Deadline.make ~budget_ms:ms ()
      in
      let compute () =
        try f ctx item with
        | Deadline.Deadline_exceeded as exn -> raise exn
        | exn -> Error (Printexc.to_string exn)
      in
      (* Deadline_exceeded escapes [compute] so a timed-out analysis
         is never cached — a retry with a larger budget can still
         succeed — and is converted to a structured error here, naming
         whichever deadline expired *)
      let outcome =
        match
          Deadline.check outer;
          Deadline.with_deadline d (fun () ->
              match cache with
              | None -> compute ()
              | Some c -> Cache.find_or_add c key compute)
        with
        | outcome -> outcome
        | exception Deadline.Deadline_exceeded ->
          Error (Deadline.error_message (if Deadline.expired outer then outer else d))
      in
      { label = key; elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.; outcome }
    in
    (* duplicate labels need no special casing: [Cache.find_or_add]
       computes a key once and serves every other caller of it, even
       one that arrives while the computation is in flight *)
    match with_ctx with
    | Some with_ctx ->
      Array.to_list
        (Pool.map_claims ~jobs ~with_ctx:(fun k -> with_ctx (fun c -> k (Some c))) ~f:work items)
    | None ->
      let count e =
        Metrics.incr "batch/items";
        if Result.is_error e.outcome then Metrics.incr "batch/errors";
        e
      in
      Metrics.time "batch/run" @@ fun () ->
      Array.to_list (Pool.map ~jobs (fun item -> count (work None item)) items)
  end
