//! VCF — variant call records.
//!
//! The pipeline's final output (paper Table 2, steps v1/v2) and the
//! currency of the accuracy study: D-impact (Table 8) diffs variant sets,
//! and Tables 9/10 report per-set quality metrics (MQ, DP, FS, AB, Ti/Tv,
//! Het/Hom). Those annotations are first-class fields here.

use crate::error::{FormatError, Result};
use std::fmt;

/// Diploid genotype of a called variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Genotype {
    /// One reference and one alternate allele (`0/1`).
    Het,
    /// Two alternate alleles (`1/1`).
    HomAlt,
}

impl Genotype {
    pub fn as_str(self) -> &'static str {
        match self {
            Genotype::Het => "0/1",
            Genotype::HomAlt => "1/1",
        }
    }

    pub fn parse(s: &str) -> Result<Genotype> {
        match s {
            "0/1" | "0|1" | "1|0" => Ok(Genotype::Het),
            "1/1" | "1|1" => Ok(Genotype::HomAlt),
            other => Err(FormatError::Vcf(format!("unsupported genotype {other:?}"))),
        }
    }
}

/// Variant class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VariantKind {
    /// Single-nucleotide polymorphism.
    Snp,
    /// Insertion (alt longer than ref).
    Insertion,
    /// Deletion (ref longer than alt).
    Deletion,
}

/// One variant call.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantRecord {
    /// Chromosome name.
    pub chrom: String,
    /// 1-based position of the first reference base affected.
    pub pos: i64,
    /// Reference allele.
    pub ref_allele: String,
    /// Alternate allele.
    pub alt_allele: String,
    /// Variant quality (Phred-scaled confidence the site is variant).
    pub qual: f64,
    /// Genotype call.
    pub genotype: Genotype,
    /// `DP`: read depth at the site.
    pub depth: u32,
    /// `MQ`: RMS mapping quality of reads at the site.
    pub mapping_quality: f64,
    /// `FS`: Phred-scaled strand-bias Fisher's-exact score (0 = none).
    pub fisher_strand: f64,
    /// `AB`: allele balance, fraction of ALT-supporting reads.
    pub allele_balance: f64,
}

impl VariantRecord {
    /// Site identity: what D-count / D-impact comparisons key on.
    pub fn site_key(&self) -> (String, i64, String, String) {
        (
            self.chrom.clone(),
            self.pos,
            self.ref_allele.clone(),
            self.alt_allele.clone(),
        )
    }

    /// [`site_key`](Self::site_key) by reference: compares in the same
    /// (chrom, pos, ref, alt) order without allocating.
    pub fn site(&self) -> (&str, i64, &str, &str) {
        (&self.chrom, self.pos, &self.ref_allele, &self.alt_allele)
    }

    /// Classify the variant.
    pub fn kind(&self) -> VariantKind {
        use std::cmp::Ordering;
        match self.alt_allele.len().cmp(&self.ref_allele.len()) {
            Ordering::Equal => VariantKind::Snp,
            Ordering::Greater => VariantKind::Insertion,
            Ordering::Less => VariantKind::Deletion,
        }
    }

    /// For SNPs: is the substitution a transition (A<->G, C<->T)?
    /// Transversions are everything else; indels return `None`.
    pub fn is_transition(&self) -> Option<bool> {
        if self.kind() != VariantKind::Snp || self.ref_allele.len() != 1 {
            return None;
        }
        let r = self.ref_allele.as_bytes()[0].to_ascii_uppercase();
        let a = self.alt_allele.as_bytes()[0].to_ascii_uppercase();
        let transition = matches!(
            (r, a),
            (b'A', b'G') | (b'G', b'A') | (b'C', b'T') | (b'T', b'C')
        );
        Some(transition)
    }
}

/// Serialize records as VCF-like text (header + one line per call).
pub fn to_text(records: &[VariantRecord]) -> String {
    let mut out = String::from(
        "##fileformat=VCFv4.2\n#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tSAMPLE\n",
    );
    for r in records {
        out.push_str(&format!(
            "{}\t{}\t.\t{}\t{}\t{:.2}\t.\tDP={};MQ={:.2};FS={:.3};AB={:.3}\tGT\t{}\n",
            r.chrom,
            r.pos,
            r.ref_allele,
            r.alt_allele,
            r.qual,
            r.depth,
            r.mapping_quality,
            r.fisher_strand,
            r.allele_balance,
            r.genotype.as_str()
        ));
    }
    out
}

/// Parse VCF-like text produced by [`to_text`].
pub fn from_text(text: &str) -> Result<Vec<VariantRecord>> {
    let mut out = Vec::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() < 10 {
            return Err(FormatError::Vcf(format!(
                "vcf line has {} fields, need 10",
                f.len()
            )));
        }
        let pos = f[1]
            .parse::<i64>()
            .map_err(|_| FormatError::Vcf(format!("bad pos {:?}", f[1])))?;
        let qual = f[5]
            .parse::<f64>()
            .map_err(|_| FormatError::Vcf(format!("bad qual {:?}", f[5])))?;
        let mut depth = 0u32;
        let mut mq = 0f64;
        let mut fs = 0f64;
        let mut ab = 0f64;
        for item in f[7].split(';') {
            let Some((k, v)) = item.split_once('=') else {
                continue;
            };
            match k {
                "DP" => {
                    depth = v
                        .parse()
                        .map_err(|_| FormatError::Vcf(format!("bad DP {v:?}")))?
                }
                "MQ" => {
                    mq = v
                        .parse()
                        .map_err(|_| FormatError::Vcf(format!("bad MQ {v:?}")))?
                }
                "FS" => {
                    fs = v
                        .parse()
                        .map_err(|_| FormatError::Vcf(format!("bad FS {v:?}")))?
                }
                "AB" => {
                    ab = v
                        .parse()
                        .map_err(|_| FormatError::Vcf(format!("bad AB {v:?}")))?
                }
                _ => {}
            }
        }
        out.push(VariantRecord {
            chrom: f[0].to_string(),
            pos,
            ref_allele: f[3].to_string(),
            alt_allele: f[4].to_string(),
            qual,
            genotype: Genotype::parse(f[9])?,
            depth,
            mapping_quality: mq,
            fisher_strand: fs,
            allele_balance: ab,
        });
    }
    Ok(out)
}

impl crate::wire::Wire for VariantRecord {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.chrom.encode(buf);
        self.pos.encode(buf);
        self.ref_allele.encode(buf);
        self.alt_allele.encode(buf);
        buf.extend_from_slice(&self.qual.to_le_bytes());
        buf.push(match self.genotype {
            Genotype::Het => 0,
            Genotype::HomAlt => 1,
        });
        self.depth.encode(buf);
        buf.extend_from_slice(&self.mapping_quality.to_le_bytes());
        buf.extend_from_slice(&self.fisher_strand.to_le_bytes());
        buf.extend_from_slice(&self.allele_balance.to_le_bytes());
    }

    fn decode(cur: &mut crate::wire::Cursor<'_>) -> crate::error::Result<Self> {
        let chrom = String::decode(cur)?;
        let pos = i64::decode(cur)?;
        let ref_allele = String::decode(cur)?;
        let alt_allele = String::decode(cur)?;
        let f64_of = |cur: &mut crate::wire::Cursor<'_>| -> crate::error::Result<f64> {
            Ok(f64::from_bits(cur.get_u64()?))
        };
        let qual = f64_of(cur)?;
        let gt_byte = u32::decode(cur)? as u8;
        let genotype = if gt_byte == 0 {
            Genotype::Het
        } else {
            Genotype::HomAlt
        };
        let depth = u32::decode(cur)?;
        let mapping_quality = f64_of(cur)?;
        let fisher_strand = f64_of(cur)?;
        let allele_balance = f64_of(cur)?;
        Ok(VariantRecord {
            chrom,
            pos,
            ref_allele,
            alt_allele,
            qual,
            genotype,
            depth,
            mapping_quality,
            fisher_strand,
            allele_balance,
        })
    }
}

impl fmt::Display for VariantRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} {}>{} q{:.0} {}",
            self.chrom,
            self.pos,
            self.ref_allele,
            self.alt_allele,
            self.qual,
            self.genotype.as_str()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(chrom: &str, pos: i64, r: &str, a: &str) -> VariantRecord {
        VariantRecord {
            chrom: chrom.into(),
            pos,
            ref_allele: r.into(),
            alt_allele: a.into(),
            qual: 55.5,
            genotype: Genotype::Het,
            depth: 30,
            mapping_quality: 58.2,
            fisher_strand: 1.25,
            allele_balance: 0.48,
        }
    }

    #[test]
    fn text_roundtrip() {
        let recs = vec![var("chr1", 100, "A", "G"), var("chr2", 5, "AT", "A")];
        let text = to_text(&recs);
        let back = from_text(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].chrom, "chr1");
        assert_eq!(back[0].depth, 30);
        assert!((back[0].mapping_quality - 58.2).abs() < 0.01);
        assert!((back[1].qual - 55.5).abs() < 0.01);
        assert_eq!(back[1].kind(), VariantKind::Deletion);
    }

    #[test]
    fn kind_classification() {
        assert_eq!(var("c", 1, "A", "G").kind(), VariantKind::Snp);
        assert_eq!(var("c", 1, "A", "AGG").kind(), VariantKind::Insertion);
        assert_eq!(var("c", 1, "AGG", "A").kind(), VariantKind::Deletion);
    }

    #[test]
    fn transition_transversion() {
        assert_eq!(var("c", 1, "A", "G").is_transition(), Some(true));
        assert_eq!(var("c", 1, "C", "T").is_transition(), Some(true));
        assert_eq!(var("c", 1, "A", "C").is_transition(), Some(false));
        assert_eq!(var("c", 1, "A", "T").is_transition(), Some(false));
        assert_eq!(var("c", 1, "AT", "A").is_transition(), None);
    }

    #[test]
    fn genotype_parse() {
        assert_eq!(Genotype::parse("0/1").unwrap(), Genotype::Het);
        assert_eq!(Genotype::parse("1|1").unwrap(), Genotype::HomAlt);
        assert!(Genotype::parse("2/1").is_err());
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(from_text("chr1\t100\t.\tA").is_err());
        assert!(from_text("chr1\tX\t.\tA\tG\t50\t.\tDP=1\tGT\t0/1").is_err());
    }

    #[test]
    fn wire_roundtrip() {
        use crate::wire::Wire as _;
        let v = var("chr2", 12345, "AT", "A");
        let bytes = v.to_wire_bytes();
        let back = VariantRecord::from_wire_bytes(&bytes).unwrap();
        assert_eq!(back, v);
        let mut h = var("chr1", 7, "A", "G");
        h.genotype = Genotype::HomAlt;
        assert_eq!(
            VariantRecord::from_wire_bytes(&h.to_wire_bytes()).unwrap(),
            h
        );
    }

    #[test]
    fn site_key_distinguishes_alleles() {
        assert_ne!(
            var("c", 1, "A", "G").site_key(),
            var("c", 1, "A", "T").site_key()
        );
        assert_eq!(
            var("c", 1, "A", "G").site_key(),
            var("c", 1, "A", "G").site_key()
        );
    }
}
