(** Sinks for {!Obs.snapshot}: a human-readable pretty-printer and a JSON
    emitter producing the repo's metrics-report schema.

    The schema ([ftspan.metrics.v1]) is shared by [bench/main.exe --json]
    and [ftspan build --metrics=json]:

    {v
    { "schema": "ftspan.metrics.v1",
      "created_unix": 1720000000.0,
      "entries": [
        { "id": "e2",
          "wall_time_s": 1.234,
          "counters":   { "lbc.calls": 12345, ... },
          "timers":     { "name": { "count": 3, "total_s": 0.5 }, ... },
          "histograms": { "name": { "count": 9, "sum": 41.0,
                                    "min": 1.0, "max": 16.0,
                                    "buckets": [ { "le": 1.0, "count": 2 },
                                                 { "le": null, "count": 1 } ] } },
          "spans": [ { "name": "poly_greedy.build", "count": 5,
                       "total_s": 1.1, "children": [ ... ] } ] } ] }
    v}

    A bucket's ["le"] is its inclusive upper bound; [null] marks the
    overflow bucket.  The third sink — the null sink — is not here: it is
    [Obs.set_enabled false], which stops collection at the source. *)

(** One measured unit of work (an experiment, a CLI invocation). *)
type entry = { id : string; wall_s : float; snap : Obs.snapshot }

(** [pp ppf snap] renders a snapshot as an indented human-readable
    listing (counters, timers, histograms, span tree). *)
val pp : Format.formatter -> Obs.snapshot -> unit

(** [json_of_report ?created entries] is a full [ftspan.metrics.v1]
    document; [created] is seconds since the epoch and defaults to
    [Unix.time ()] — the one timestamp source every producer (CLI,
    bench) shares, so reports are identically shaped no matter who
    emits them. *)
val json_of_report : ?created:float -> entry list -> Obs_json.t

(** [write_report ?created ~file entries] writes the indented JSON
    document to [file]. *)
val write_report : ?created:float -> file:string -> entry list -> unit
